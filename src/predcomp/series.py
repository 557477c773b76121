"""Series containers, change point labels and detections.

Time convention: array indices are 0-based everywhere inside the package.
File formats and printed times are 1-based; the conversion is
:func:`predcomp.io.time_field` and :func:`predcomp.io.time_index` and
nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Recognized phase tags: before run-in, run-in, constant, divergent, paused.
PHASES = ("B", "E", "K", "A", "V")


@dataclass(frozen=True)
class CpLabel:
    """Ground-truth change point: first index of the new phase."""

    time: int
    from_phase: str = ""
    to_phase: str = ""

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"label time must be >= 0, got {self.time}")
        for ph in (self.from_phase, self.to_phase):
            if ph and ph not in PHASES:
                raise ValueError(f"unknown phase tag {ph!r}")

    def key(self) -> str:
        return f"{self.from_phase}>{self.to_phase}" if self.to_phase else ""


@dataclass(frozen=True)
class Detection:
    """One alarm raised by a detector.

    ``detect_time`` is the index at which the alarm fired; ``located_time``
    is the detector's estimate of where the change began (for CUSUM charts
    the step after the last zero of the statistic).  Detectors without a
    locator leave ``located_time`` as None.
    """

    detect_time: int
    located_time: int | None = None
    detector: str = ""
    stat_value: float = 0.0

    @property
    def attribution_time(self) -> int:
        """Index used for scoring; the located time when available."""
        return self.detect_time if self.located_time is None else self.located_time


@dataclass
class LabeledSeries:
    """A univariate stream plus optional phase tags and change labels."""

    values: np.ndarray
    cp_labels: list[CpLabel] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        last = -1
        for lab in self.cp_labels:
            if not 0 <= lab.time < len(self.values):
                raise ValueError(f"cp label at {lab.time} outside series of length {len(self.values)}")
            if lab.time <= last:
                raise ValueError("cp labels must be strictly increasing")
            last = lab.time

    def __len__(self) -> int:
        return len(self.values)

    def phase_tags(self) -> list[str]:
        """Per-index phase tags implied by the labels.

        The tag changes exactly at each label time; indices before the first
        label get the first label's from_phase, and every index of a series
        without labels gets "".
        """
        n = len(self.values)
        if not self.cp_labels:
            return [""] * n
        cur = self.cp_labels[0].from_phase
        tags = []
        pending = list(self.cp_labels)
        for i in range(n):
            while pending and pending[0].time == i:
                cur = pending.pop(0).to_phase
            tags.append(cur)
        return tags

    def phase_bounds(self, label: CpLabel) -> tuple[int, int]:
        """Half-open index range of the phase introduced by ``label``."""
        if label not in self.cp_labels:
            raise ValueError("label does not belong to this series")
        i = self.cp_labels.index(label)
        end = self.cp_labels[i + 1].time if i + 1 < len(self.cp_labels) else len(self.values)
        return label.time, end

    def with_values(self, values: np.ndarray) -> "LabeledSeries":
        """Same labels and name, new values (e.g. after standardization)."""
        if len(values) != len(self.values):
            raise ValueError("replacement values must keep the series length")
        return LabeledSeries(np.asarray(values, dtype=float), list(self.cp_labels), self.name)


def non_finite_error(index: int, value: float) -> ValueError:
    """The error a detector raises on the first NaN or infinite observation."""
    return ValueError(f"series value at index {index} is not finite ({value})")


def finite_values(series) -> np.ndarray:
    """Observations of a LabeledSeries or array as float64, all finite.

    Raises the :func:`non_finite_error` of the first NaN or infinite value.
    """
    values = series.values if isinstance(series, LabeledSeries) else np.asarray(series, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise non_finite_error(int(bad[0]), values[bad[0]])
    return values


#: :func:`chunked_dot` runs on chunks of at most this many elements, summed
#: left to right: OpenBLAS splits a dot of 10,000 elements or more across its
#: threads, which would make the sum depend on the thread count
DOT_CHUNK = 8192


def chunked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of a and b, as ``np.dot`` on chunks of at most
    `DOT_CHUNK` elements whose results are added left to right; up to one
    chunk it is the single ``np.dot``."""
    if len(a) <= DOT_CHUNK:
        return float(np.dot(a, b))
    total = 0.0
    for i in range(0, len(a), DOT_CHUNK):
        total += float(np.dot(a[i:i + DOT_CHUNK], b[i:i + DOT_CHUNK]))
    return total
