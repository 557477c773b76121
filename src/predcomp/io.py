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

JSON files, with sorted keys: the LSTM model that ``train-lstm`` writes and
an ``lstm`` predictor reads (:func:`write_lstm`, :func:`read_lstm`:
schema_version, kind ``lstm``, the sizes nh, nz and hidden, and each weight
array flat next to its shape) and the ``simulate`` manifest (the seed and,
per dataset, its id, rows, 1-based labels and source).

Every writer writes a temporary file next to its target and renames it
over the target only once it is complete (:func:`replacing`), so a write
that fails leaves the old file as it was, or no file, never a truncated one.
A target whose temporary file cannot be opened, in a missing directory or
under a regular file, is a :class:`DataError` naming the target; the
commands refuse such a target before any work with :func:`check_output`.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .evaluate import EvalRecord
from .lstm import LstmNet
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
        fh = open(tmp, "w", newline=newline)
    except OSError as exc:  # a missing directory, or a regular file in its place
        raise DataError(f"{path}: cannot write: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_output(*paths, directory: bool = False) -> None:
    """A :class:`DataError` for the first of ``paths`` that cannot be written; None
    stands for no output.  No two of ``paths`` may name one file.  A file needs a
    writable directory as its parent and must not be a directory itself; a
    ``directory`` needs a writable directory as its nearest existing ancestor, or
    itself."""
    paths = [Path(path) for path in paths if path]
    resolved = [os.path.realpath(path) for path in paths]  # no error on a symlink loop
    for path, real in zip(paths, resolved):
        if resolved.count(real) > 1:
            raise DataError(f"{path}: given for two outputs of one command")
    for path in paths:
        near = path if directory else path.parent
        while directory and not near.exists() and near != near.parent:
            near = near.parent  # make_dir makes the missing parents
        err = (errno.EISDIR if not directory and path.is_dir() else
               errno.ENOENT if not near.exists() else
               errno.ENOTDIR if not near.is_dir() else
               errno.EACCES if not os.access(near, os.W_OK | os.X_OK) else None)
        if err:
            what = "make the directory" if directory else "write"
            raise DataError(f"{path}: cannot {what}: {os.strerror(err)}")


def make_dir(path) -> Path:
    """The directory ``path``, made with its missing parents."""
    check_output(path, directory=True)
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot make the directory: {exc.strerror}") from None
    return path


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


def write_metrics_csv(path, records: list[EvalRecord]) -> None:
    _write_rows(path, METRICS_HEADER, (
        [r.dataset_id, r.detector_id, r.params_id, r.n_detections, r.fpc, int(r.target_found),
         "" if r.arlp is None else repr(round(r.arlp, 6)), time_field(r.detect_time),
         time_field(r.located_time), int(r.valid)] for r in records))


def _metrics_record(ds, det, pid, n_det, fpc, found, arlp, dt, loc, valid) -> EvalRecord:
    """The run of one metrics row; a field ``eval`` and ``report`` cannot rank is a ValueError."""
    for name, field in (("n_detections", n_det), ("fpc", fpc)):
        if int(field) < 0:
            raise ValueError(f"{name} must be >= 0, got {field}")
    for name, field in (("target_found", found), ("valid", valid)):
        if field not in ("0", "1"):
            raise ValueError(f"{name} must be 0 or 1, got {field!r}")
    if arlp and not math.isfinite(float(arlp)):
        raise ValueError(f"arlp must be finite, got {arlp}")
    if found == "1" and not arlp:
        raise ValueError("a found target needs an arlp")
    return EvalRecord(ds, det, pid, int(n_det), int(fpc), found == "1",
                      float(arlp) if arlp else None, time_index(dt, optional=True),
                      time_index(loc, optional=True), valid == "1")


def read_metrics_csv(path) -> list[EvalRecord]:
    """Each run of ``path``; a second row of one (dataset, detector, params) is a DataError."""
    records, runs = [], set()
    for where, row in _read_rows(path, METRICS_HEADER):
        if (run := tuple(row[:3])) in runs:
            raise DataError(f"{where}: a second row of the run {','.join(run)}")
        runs.add(run)
        records.append(_parse(where, lambda: _metrics_record(*row)))
    return records


def write_loss_csv(path, train_loss: list[float], val_loss: list[float]) -> None:
    _write_rows(path, ["epoch", "train_loss", "val_loss"], (
        [e, repr(float(tl)), "" if vl is None else repr(float(vl))]
        for e, (tl, vl) in enumerate(zip_longest(train_loss, val_loss), start=1)))


def write_lstm(path, net: LstmNet) -> None:
    write_json(path, {"schema_version": MODEL_SCHEMA_VERSION, "kind": "lstm", "nh": net.nh,
                      "nz": net.nz, "hidden": net.hidden, "arrays": {
                          k: {"shape": list(v.shape), "data": [float(x) for x in v.ravel()]}
                          for k, v in net.params().items()}})


def read_lstm(path) -> LstmNet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if (doc["schema_version"], doc["kind"]) != (MODEL_SCHEMA_VERSION, "lstm"):
            raise ValueError(f"schema_version {doc['schema_version']!r}, kind {doc['kind']!r}")
        nh, nz, H = (int(doc[k]) for k in ("nh", "nz", "hidden"))
        shapes = {"W": [4 * H, 1 + H], "b": [4 * H], "Wy": [nz, H], "by": [nz]}
        if any(doc["arrays"][k]["shape"] != shape for k, shape in shapes.items()):
            raise ValueError(f"array shapes do not fit hidden {H} and nz {nz}")
        W, b, Wy, by = (np.asarray(doc["arrays"][k]["data"], dtype=float).reshape(shape)
                        for k, shape in shapes.items())
        if not all(np.isfinite(a).all() for a in (W, b, Wy, by)):
            raise ValueError("a weight is not finite")
        return LstmNet(nh, nz, H, W, b, Wy, by)
    except OSError as exc:
        raise DataError(f"{path}: cannot read the model: {exc.strerror}") from None
    except (LookupError, TypeError, ValueError) as exc:  # not json, or not this layout
        raise DataError(f"{path}: not an lstm model file of schema_version "
                        f"{MODEL_SCHEMA_VERSION} ({exc!r})") from None


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
    hi = max(0.0, max(stat), max(thr)) * 1.05 or 1.0
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
