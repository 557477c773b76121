"""Oracles and readers that several test files share, as fixtures."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from predcomp.cusum import CusumChart
from predcomp.lstm import LstmNet, loss_and_grads, lstm_forward, mse_loss


def _run_chart(values, targets, threshold: float, allowance: float = 0.5,
               direction: str = "up", start: int = 0):
    """Run a chart over aligned value/target arrays.

    Returns (detections, trajectory) where detections are (detect_index,
    located_index) pairs and trajectory is the list of S_j values.  After
    each alarm a fresh chart starts at the next index.
    """
    chart = CusumChart(threshold, allowance, direction, start=start)
    detections = []
    path = []
    for i, (x, tgt) in enumerate(zip(values, targets), start):
        alarm = chart.step(i, float(x), float(tgt))
        path.append(chart.value)
        if alarm:
            detections.append((i, chart.located()))
            chart = CusumChart(threshold, allowance, direction, start=i + 1)
    return detections, path


def _gradient_check(net: LstmNet, X: np.ndarray, target: np.ndarray,
                    step: float = 1e-5) -> float:
    """Max relative error of BPTT against central finite differences.

    Per element the error is |ga - gn| / max(|ga|, |gn|); element pairs
    that agree below 1e-6 in absolute value are treated as matching (the
    quotient is meaningless at the finite-difference noise floor).
    """
    _, grads = loss_and_grads(net, X, target)
    worst = 0.0
    for key, p in net.params().items():
        flat = p.ravel()
        ga = grads[key].ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up, _ = mse_loss(lstm_forward(net, X)[0], target)
            flat[j] = orig - step
            dn, _ = mse_loss(lstm_forward(net, X)[0], target)
            flat[j] = orig
            gn = (up - dn) / (2 * step)
            denom = max(abs(ga[j]), abs(gn))
            if denom < 1e-6:
                continue
            worst = max(worst, abs(ga[j] - gn) / denom)
    return worst


def _read_detections(path) -> list[tuple[str, str, str, int, int | None]]:
    """``(dataset, detector, params, detect_time, located_time)`` per row of
    the detections CSV that ``detect`` writes, with the times made 0-based."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["dataset", "detector", "params", "detect_time", "located_time"]
    return [(ds, det, pid, int(dt) - 1, int(loc) - 1 if loc else None)
            for ds, det, pid, dt, loc in rows[1:]]


def _outputs_per_blas_thread_count(code: str, *args: str) -> list[str]:
    """The stdout of ``python -c code *args`` with one and with two OpenBLAS
    threads, ``src`` on the path."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code, *args],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    return outs


@pytest.fixture()
def run_chart():
    return _run_chart


@pytest.fixture()
def gradient_check():
    return _gradient_check


@pytest.fixture()
def read_detections():
    return _read_detections


@pytest.fixture()
def outputs_per_blas_thread_count():
    return _outputs_per_blas_thread_count
