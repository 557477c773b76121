"""File formats.

All on-disk times are 1-based; the shift to the package's 0-based indices
happens here and only here.  Floats are written with ``repr`` (shortest
round-trip form), so identical data always produces identical bytes.

Series CSV: header ``time,value,phase,cp``; ``phase`` is one of B/E/K/A/V
or empty, ``cp`` is empty except on change rows, where it reads
``FROM>TO``.  A sidecar label file (header ``time,from,to``) can replace
inline labels.

Detections CSV: ``dataset,detector,params,detect_time,located_time``.
Metrics CSV: one row per scored run.  Models: JSON with a schema_version
and a kind tag; arrays are stored flat next to their shapes.

Every writer writes a temporary file next to its target and renames it
over the target only once it is complete (:func:`replacing`), so a write
that fails leaves the old file as it was, or no file, never a truncated one.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .evaluate import EvalRecord
from .series import CpLabel, Detection, LabeledSeries

SERIES_HEADER = ["time", "value", "phase", "cp"]
MODEL_SCHEMA_VERSION = 1


class DataError(ValueError):
    """Malformed data file (CLI exit code 2)."""


@contextmanager
def replacing(path, newline: str | None = None):
    """Open a text file that replaces ``path`` when the block ends without
    an error; on an error the partial file is removed and ``path`` is
    left untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def write_series_csv(path, series: LabeledSeries) -> None:
    tags = series.phase_tags()
    by_time = {lab.time: lab for lab in series.cp_labels}
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SERIES_HEADER)
        for i, v in enumerate(series.values):
            lab = by_time.get(i)
            w.writerow([i + 1, _fmt(float(v)), tags[i], lab.key() if lab else ""])


def _parse_cp(token: str, where: str) -> tuple[str, str]:
    if ">" not in token:
        raise DataError(f"{where}: cp must look like FROM>TO, got {token!r}")
    frm, to = token.split(">", 1)
    return frm.strip(), to.strip()


def _open_input(path):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None


def read_series_csv(path, name: str | None = None) -> LabeledSeries:
    path = Path(path)
    values = []
    labels = []
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SERIES_HEADER:
            raise DataError(f"{path}: expected header {','.join(SERIES_HEADER)}")
        for ln, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"{path}:{ln}: expected 4 columns")
            t_raw, v_raw, phase, cp = row
            try:
                t = int(t_raw)
                v = float(v_raw)
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: bad time or value: {exc}") from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{ln}: value {v_raw!r} is not finite")
            if t != len(values) + 1:
                raise DataError(f"{path}:{ln}: time must be contiguous 1-based, got {t}")
            if phase and phase not in ("B", "E", "K", "A", "V"):
                raise DataError(f"{path}:{ln}: unknown phase {phase!r}")
            values.append(v)
            if cp:
                frm, to = _parse_cp(cp, f"{path}:{ln}")
                labels.append(CpLabel(t - 1, frm, to))
    if not values:
        raise DataError(f"{path}: no data rows")
    try:
        return LabeledSeries(np.asarray(values), labels, name=name or path.stem)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_labels_csv(path) -> list[CpLabel]:
    """Sidecar labels: header time,from,to with 1-based times."""
    path = Path(path)
    labels = []
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["time", "from", "to"]:
            raise DataError(f"{path}: expected header time,from,to")
        for ln, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise DataError(f"{path}:{ln}: expected 3 columns")
            try:
                t = int(row[0])
            except ValueError:
                raise DataError(f"{path}:{ln}: bad time {row[0]!r}") from None
            try:
                labels.append(CpLabel(t - 1, row[1].strip(), row[2].strip()))
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
    return labels


def write_detections_csv(path, rows: list[tuple[str, str, str, Detection]]) -> None:
    """rows: (dataset_id, detector_id, params_id, detection)."""
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "detector", "params", "detect_time", "located_time"])
        for ds, det, pid, d in rows:
            w.writerow([ds, det, pid, d.detect_time + 1,
                        "" if d.located_time is None else d.located_time + 1])


def read_detections_csv(path) -> list[tuple[str, str, str, Detection]]:
    path = Path(path)
    out = []
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["dataset", "detector", "params", "detect_time", "located_time"]:
            raise DataError(f"{path}: bad detections header")
        for ln, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise DataError(f"{path}:{ln}: expected 5 columns")
            try:
                dt = int(row[3]) - 1
                loc = None if row[4] == "" else int(row[4]) - 1
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
            out.append((row[0], row[1], row[2], Detection(dt, loc, detector=row[1])))
    return out


def write_metrics_csv(path, records: list[EvalRecord]) -> None:
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "detector", "params", "n_detections", "fpc",
                    "target_found", "arlp", "detect_time", "located_time", "valid"])
        for r in records:
            w.writerow([
                r.dataset_id, r.detector_id, r.params_id, r.n_detections, r.fpc,
                int(r.target_found),
                "" if r.arlp is None else repr(round(r.arlp, 6)),
                "" if r.detect_time is None else r.detect_time + 1,
                "" if r.located_time is None else r.located_time + 1,
                int(r.valid),
            ])


def save_model(path, payload: dict) -> None:
    doc = {"schema_version": MODEL_SCHEMA_VERSION}
    doc.update(payload)
    with replacing(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read the model: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise DataError(f"{path}: not a model file of schema_version {MODEL_SCHEMA_VERSION}")
    if "kind" not in doc:
        raise DataError(f"{path}: model file lacks a kind tag")
    return doc


def write_trace_csv(path, rows) -> None:
    """Chart trajectory for plotting: one row per monitored step."""
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "value", "target", "stat", "threshold", "alarm"])
        for (i, value, target, stat, threshold, alarm) in rows:
            w.writerow([i + 1, repr(float(value)), repr(float(target)),
                        repr(float(stat)), repr(float(threshold)), int(alarm)])


def write_trace_svg(path, rows, width: int = 900, height: int = 300) -> None:
    """Minimal standalone SVG of the chart statistic vs its threshold."""
    if not rows:
        raise DataError("empty trace")
    xs = [r[0] + 1 for r in rows]
    stat = [r[3] for r in rows]
    thr = [r[4] for r in rows]
    alarms = [(x, s) for x, s, r in zip(xs, stat, rows) if r[5]]
    lo = min(0.0, min(stat))
    hi = max(max(stat), max(thr)) * 1.05 or 1.0
    sx = lambda x: 40 + (x - xs[0]) / max(xs[-1] - xs[0], 1) * (width - 60)
    sy = lambda y: height - 25 - (y - lo) / (hi - lo) * (height - 50)
    pts = lambda ys: " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline points="{pts(stat)}" fill="none" stroke="black" stroke-width="1"/>',
        f'<polyline points="{pts(thr)}" fill="none" stroke="red" stroke-dasharray="4 3"/>',
    ]
    for x, s in alarms:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(s):.2f}" r="3" fill="red"/>')
    parts.append(f'<text x="40" y="15" font-size="11">chart statistic (black) vs threshold (red); '
                 f'{len(alarms)} alarm(s)</text>')
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
