"""File formats.

All on-disk times are 1-based: :func:`time_field` and :func:`time_index`
shift them to and from the package's 0-based indices, and no other code
does.  Floats are written with ``repr`` (shortest round-trip form), so
identical data always produces identical bytes.

CSV files, each with a header row and ``\\r\\n`` line ends; an empty field
stands for None:

- series ``time,value,phase,cp``: ``phase`` is one of B/E/K/A/V or empty;
  ``cp`` reads ``FROM>TO`` on change rows and is empty elsewhere;
- labels ``time,from,to``: a sidecar that can replace inline labels;
- detections ``dataset,detector,params,detect_time,located_time``;
- metrics :data:`METRICS_HEADER`: one row per scored run;
- trace ``time,value,target,stat,threshold,alarm``: a chart, one row per
  monitored step, which :func:`write_trace_svg` also draws;
- loss ``epoch,train_loss,val_loss``: the LSTM training history, with
  ``val_loss`` empty when there is no validation split.

A reader turns a missing file, another header, a row of another width or a
field it cannot read into a :class:`DataError` naming ``file:line``.

JSON files, with sorted keys: a model (schema_version, kind tag, arrays
flat next to their shapes) and the ``simulate`` manifest (the seed and,
per dataset, its id, rows, 1-based labels and source).

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
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .evaluate import EvalRecord
from .series import PHASES, CpLabel, Detection, LabeledSeries

SERIES_HEADER = ["time", "value", "phase", "cp"]
DETECTIONS_HEADER = ["dataset", "detector", "params", "detect_time", "located_time"]
METRICS_HEADER = ["dataset", "detector", "params", "n_detections", "fpc", "target_found",
                  "arlp", "detect_time", "located_time", "valid"]
MODEL_SCHEMA_VERSION = 1


class DataError(ValueError):
    """Malformed data file (CLI exit code 2)."""


def time_field(index: int | None):
    """The 1-based time field of a 0-based index; empty for None."""
    return "" if index is None else index + 1


def time_index(field: str, optional: bool = False) -> int | None:
    """The 0-based index of a 1-based time field; None for an empty optional
    one.  A field below 1 is a ValueError."""
    if optional and field == "":
        return None
    if (time := int(field)) < 1:
        raise ValueError(f"time must be >= 1, got {field}")
    return time - 1


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


def write_json(path, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _write_rows(path, header: list[str], rows) -> None:
    with replacing(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_rows(path, header: list[str]):
    """Each data row of the CSV file ``path`` with its ``file:line``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if [h.strip() for h in next(reader, [])] != header:
                raise DataError(f"{path}: expected header {','.join(header)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise DataError(f"{where}: expected {len(header)} columns")
                yield where, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None


def _parse(where: str, read):
    """``read()``, with a ValueError as the DataError of ``where``."""
    try:
        return read()
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def _fmt(x: float) -> str:
    return str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(float(x))


def write_series_csv(path, series: LabeledSeries) -> None:
    tags = series.phase_tags()
    keys = {lab.time: lab.key() for lab in series.cp_labels}
    _write_rows(path, SERIES_HEADER, ([time_field(i), _fmt(float(v)), tags[i], keys.get(i, "")]
                                      for i, v in enumerate(series.values)))


def read_series_csv(path, name: str | None = None, labels=None) -> LabeledSeries:
    path = Path(path)
    values, cp_labels = [], []
    for where, (t, v_raw, phase, cp) in _read_rows(path, SERIES_HEADER):
        v = _parse(where, lambda: float(v_raw))
        if not math.isfinite(v):
            raise DataError(f"{where}: value {v_raw!r} is not finite")
        if _parse(where, lambda: time_index(t)) != len(values):
            raise DataError(f"{where}: time must be contiguous 1-based, got {t}")
        if phase and phase not in PHASES:
            raise DataError(f"{where}: unknown phase {phase!r}")
        if cp:
            frm, sep, to = cp.partition(">")
            if not sep:
                raise DataError(f"{where}: cp must look like FROM>TO, got {cp!r}")
            cp_labels.append(_parse(where, lambda: CpLabel(len(values), frm.strip(), to.strip())))
        values.append(v)
    if not values:
        raise DataError(f"{path}: no data rows")
    labels = read_labels_csv(labels) if labels else cp_labels
    return _parse(path, lambda: LabeledSeries(np.asarray(values), labels, name or path.stem))


def read_labels_csv(path) -> list[CpLabel]:
    """Sidecar labels, one change point per row."""
    return [_parse(where, lambda: CpLabel(time_index(t), frm.strip(), to.strip()))
            for where, (t, frm, to) in _read_rows(path, ["time", "from", "to"])]


def write_detections_csv(path, rows: list[tuple[str, str, str, Detection]]) -> None:
    """rows: (dataset_id, detector_id, params_id, detection)."""
    _write_rows(path, DETECTIONS_HEADER,
                ([ds, det, pid, time_field(d.detect_time), time_field(d.located_time)]
                 for ds, det, pid, d in rows))


def read_detections_csv(path) -> list[tuple[str, str, str, Detection]]:
    return [(ds, det, pid, _parse(where, lambda: Detection(
                time_index(dt), time_index(loc, optional=True), detector=det)))
            for where, (ds, det, pid, dt, loc) in _read_rows(path, DETECTIONS_HEADER)]


def write_metrics_csv(path, records: list[EvalRecord]) -> None:
    _write_rows(path, METRICS_HEADER, (
        [r.dataset_id, r.detector_id, r.params_id, r.n_detections, r.fpc, int(r.target_found),
         "" if r.arlp is None else repr(round(r.arlp, 6)), time_field(r.detect_time),
         time_field(r.located_time), int(r.valid)] for r in records))


def read_metrics_csv(path) -> list[EvalRecord]:
    return [_parse(where, lambda: EvalRecord(
                ds, det, pid, {}, int(n_det), int(fpc), bool(int(found)),
                float(arlp) if arlp else None, time_index(dt, optional=True),
                time_index(loc, optional=True), bool(int(valid))))
            for where, (ds, det, pid, n_det, fpc, found, arlp, dt, loc, valid)
            in _read_rows(path, METRICS_HEADER)]


def write_loss_csv(path, train_loss: list[float], val_loss: list[float]) -> None:
    _write_rows(path, ["epoch", "train_loss", "val_loss"], (
        [e, repr(float(tl)), "" if vl is None else repr(float(vl))]
        for e, (tl, vl) in enumerate(zip_longest(train_loss, val_loss), start=1)))


def save_model(path, payload: dict) -> None:
    write_json(path, {"schema_version": MODEL_SCHEMA_VERSION, **payload})


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


def write_manifest(path, seed: int, datasets: list[tuple[dict, LabeledSeries]]) -> None:
    """The record of ``simulate``: each (dataset config, series) it wrote."""
    write_json(path, {"seed": seed, "datasets": [
        {"id": ds["id"], "rows": len(series), "source": ds["source"],
         "labels": [[time_field(lab.time), lab.key()] for lab in series.cp_labels]}
        for ds, series in datasets]})


def write_trace_csv(path, rows) -> None:
    """Chart trajectory for plotting: one row per monitored step."""
    _write_rows(path, ["time", "value", "target", "stat", "threshold", "alarm"], (
        [time_field(i), *(repr(float(x)) for x in (value, target, stat, threshold)), int(alarm)]
        for i, value, target, stat, threshold, alarm in rows))


def write_trace_svg(path, rows) -> None:
    """Minimal standalone SVG of the chart statistic vs its threshold."""
    width, height = 900, 300  # pixels
    if not rows:
        raise DataError("empty trace")
    xs = [time_field(r[0]) for r in rows]
    stat, thr = [r[3] for r in rows], [r[4] for r in rows]
    alarms = [(x, s) for x, s, r in zip(xs, stat, rows) if r[5]]
    lo = min(0.0, min(stat), min(thr))  # a downward chart's bound is below zero
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
