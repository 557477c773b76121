"""Oracles and readers that several test files share, as fixtures."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from predcomp.lstm import LstmNet, loss_and_grads, lstm_forward, mse_loss


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


@pytest.fixture()
def gradient_check():
    return _gradient_check


@pytest.fixture()
def read_detections():
    return _read_detections
