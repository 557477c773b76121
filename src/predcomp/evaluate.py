"""Scoring, grid search and winner selection.

Attribution of detections to a target change point follows the online
reading of the experiments: detections are walked in firing order, each
one attributed at its located time when the detector provides one.  A
detection before the target label is a false positive.  The first
detection inside the target phase is the target detection; everything
after it is discarded, because an online run would have stopped there.
A detection inside a paused stretch (phase V) immediately following the
target phase still counts as the (late) target detection when nothing
found it earlier; any other paused-phase hit is a false positive.

Metrics: Fpc is the count of false positives before the target detection;
ArlP is the detection delay as a percentage of the target phase length,
100 * (detection - label) / phase_length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .pool import pool_map
from .series import CpLabel, Detection, LabeledSeries


def arlp(detect_time: float, label_time: float, phase_length: float) -> float:
    """Detection delay as percent of the phase length."""
    if phase_length <= 0:
        raise ValueError("phase_length must be positive")
    return 100.0 * (detect_time - label_time) / phase_length


@dataclass
class Attribution:
    fpc: int
    target_found: bool
    target_detection: Detection | None
    arlp: float | None
    discarded: int


def attribute(detections: list[Detection], series: LabeledSeries,
              target: CpLabel) -> Attribution:
    lo, hi = series.phase_bounds(target)
    phase_len = hi - lo
    # paused stretch directly after the target phase, if any: while the label
    # at pause_hi opens a V phase, the stretch runs on to that phase's end
    labels = series.cp_labels
    pause_hi, j = hi, labels.index(target) + 1
    while j < len(labels) and labels[j].to_phase == "V":
        pause_hi = series.phase_bounds(labels[j])[1]
        j += 1
    fpc = 0
    found = None
    discarded = 0
    for det in sorted(detections, key=lambda d: d.detect_time):
        if found is not None:
            discarded += 1
            continue
        at = det.attribution_time
        if at < lo:
            fpc += 1
        elif at < hi:
            found = det
        elif at < pause_hi:
            found = det  # late hit inside the pause right after the phase
        else:
            fpc += 1
    delay = arlp(found.attribution_time, lo, phase_len) if found else None
    return Attribution(fpc, found is not None, found, delay, discarded)


@dataclass
class EvalRecord:
    """One scored run: a row of ``metrics.csv``."""

    dataset_id: str
    detector_id: str
    params_id: str
    n_detections: int
    fpc: int
    target_found: bool
    arlp: float | None
    detect_time: int | None
    located_time: int | None
    valid: bool = True


def params_id(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def score_run(detections: list[Detection], series: LabeledSeries, target: CpLabel,
              dataset_id: str, detector_id: str, params: dict) -> EvalRecord:
    att = attribute(detections, series, target)
    det = att.target_detection
    return EvalRecord(
        dataset_id=dataset_id, detector_id=detector_id, params_id=params_id(params),
        n_detections=len(detections), fpc=att.fpc,
        target_found=att.target_found, arlp=att.arlp,
        detect_time=det.detect_time if det else None,
        located_time=det.located_time if det else None,
    )


def find_target(series: LabeledSeries, key: str = "K>A") -> CpLabel | None:
    for lab in series.cp_labels:
        if lab.key() == key:
            return lab
    return None


@dataclass
class DetectorGrid:
    """One detector plus its parameter ranges for the grid search.

    ``grid`` maps parameter names to value lists; the Cartesian product is
    scanned in sorted-key order (:meth:`points`).  ``unit(series, points)``
    runs the detector on one series at each point and returns one detection
    list per point, in their order; ``runner(series, **params)`` runs one
    point.  Either one, given alone, makes the other: a loop of ``runner``
    over the points, or ``unit`` at one point.  Both must be pure functions
    of their arguments.
    """

    detector_id: str
    runner: object = None
    grid: dict = field(default_factory=dict)
    unit: object = None

    def __post_init__(self):
        if self.runner is None and self.unit is None:
            raise TypeError("DetectorGrid needs a runner or a unit")
        if self.unit is None:
            self.unit = lambda series, points: [self.runner(series, **p) for p in points]
        if self.runner is None:
            self.runner = lambda series, **params: self.unit(series, [params])[0]

    def points(self):
        keys = sorted(self.grid)
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))


#: a grid point firing this often on one dataset is out of any useful range
EXCESSIVE_DETECTIONS = 1000


def run_grid(datasets: list[LabeledSeries], detectors: list[DetectorGrid],
             target_key: str = "K>A") -> list[EvalRecord]:
    """Score every (dataset, detector, grid point); deterministic order.

    Every dataset must carry the target label, and no detector's points may
    repeat a ``params_id``: both are checked before any detector runs.  Each
    detector's unit runs once per dataset over all its points; the grid maps
    these units over up to one forked worker per CPU
    (:func:`predcomp.pool.pool_map`), so the records are the serial ones bit
    for bit.  The first unit to fail in the serial order raises as soon as
    every unit before it is done, and no later unit is waited for.  The
    records come out by detector, then point, then dataset.  A grid point is
    flagged invalid when it finds no change point on any dataset or an
    excessive number (>= 1000) on some dataset; invalid points are kept in
    the records (flagged) but skipped by selection.
    """
    targets = [find_target(series, target_key) for series in datasets]
    for series, target in zip(datasets, targets):
        if target is None:
            raise ValueError(f"dataset {series.name!r} lacks a {target_key} label")
    points = [list(det.points()) for det in detectors]
    for det, pts in zip(detectors, points):
        seen = set()
        for pid in map(params_id, pts):
            if pid in seen:
                raise ValueError(f"detector {det.detector_id!r} repeats grid point {pid!r}")
            seen.add(pid)
    jobs = [(det.unit, series, pts) for det, pts in zip(detectors, points) for series in datasets]
    done = iter(pool_map(lambda job: job[0](job[1], job[2]), jobs))
    records = []
    for det, pts in zip(detectors, points):
        runs = [next(done) for _ in datasets]
        for params, found in zip(pts, zip(*runs)):
            valid = any(found) and all(len(dets) < EXCESSIVE_DETECTIONS for dets in found)
            for series, target, detections in zip(datasets, targets, found):
                records.append(score_run(detections, series, target, series.name,
                                         det.detector_id, params))
                records[-1].valid = valid
    return records


@dataclass
class Winner:
    scope: str
    dataset_id: str  # empty for overall/subset scopes
    detector_id: str
    params_id: str
    fpc: float
    arlp: float


def select_best(records: list[EvalRecord], scope: str = "per_dataset",
                fpc_cap: float | None = None, datasets: list[str] | None = None,
                reversed_rule: bool = False) -> list[Winner]:
    """Winners under the Fpc-then-ArlP rule (or reversed).

    per_dataset: best valid run per (dataset, detector) with fpc <= cap
    (default 10).  overall: per (detector, params) summed Fpc across all
    datasets and averaged ArlP, cap default 150, only for grid points that
    found the target everywhere.  subset: overall restricted to the given
    dataset ids, cap default 30.  Ties break lexicographically on
    params_id, so selection is deterministic.
    """
    if scope not in ("per_dataset", "overall", "subset"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "subset" and not datasets:
        raise ValueError("subset scope needs dataset ids")
    if datasets:
        records = [r for r in records if r.dataset_id in datasets]
    cand = [r for r in records if r.valid and r.target_found]
    if scope == "per_dataset":
        cap = 10 if fpc_cap is None else fpc_cap
        rows = [(r.dataset_id, r.detector_id, r.params_id, r.fpc, r.arlp) for r in cand]
    else:
        cap = (150 if scope == "overall" else 30) if fpc_cap is None else fpc_cap
        ds_ids = sorted({r.dataset_id for r in records})
        runs: dict[tuple[str, str], list[EvalRecord]] = {}
        for r in cand:
            runs.setdefault((r.detector_id, r.params_id), []).append(r)
        # the target must be found on every dataset in scope
        rows = [("", det, pid, float(sum(r.fpc for r in rs)), float(np.mean([r.arlp for r in rs])))
                for (det, pid), rs in runs.items() if sorted({r.dataset_id for r in rs}) == ds_ids]
    rank = (lambda w: (w[4], w[3], w[2])) if reversed_rule else (lambda w: (w[3], w[4], w[2]))
    best: dict[tuple[str, str], tuple] = {}
    for row in rows:
        if row[3] <= cap and (row[:2] not in best or rank(row) < rank(best[row[:2]])):
            best[row[:2]] = row
    return [Winner(scope, *best[key]) for key in sorted(best)]


def average_max_fpc(records: list[EvalRecord]) -> float:
    """Mean over datasets of the largest Fpc any run reached (the
    ``avg_max`` budget of the random baseline)."""
    per_ds: dict[str, int] = {}
    for r in records:
        per_ds[r.dataset_id] = max(per_ds.get(r.dataset_id, 0), r.fpc)
    if not per_ds:
        raise ValueError("no records")
    return float(np.mean(list(per_ds.values())))


def render_report(winners: list[Winner], title: str = "best runs") -> str:
    """Plain-text table of winners (dataset x detector style)."""
    lines = [title, "=" * len(title), ""]
    header = f"{'scope':<12} {'dataset':<12} {'detector':<14} {'fpc':>6} {'arlp%':>8}  params"
    lines.append(header)
    lines.append("-" * len(header))
    for w in winners:
        lines.append(f"{w.scope:<12} {w.dataset_id or '-':<12} {w.detector_id:<14} "
                     f"{w.fpc:>6.0f} {w.arlp:>8.2f}  {w.params_id}")
    if not winners:
        lines.append("(no run met the criteria)")
    return "\n".join(lines) + "\n"
