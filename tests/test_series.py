import numpy as np
import pytest

from predcomp.series import CpLabel, Detection, LabeledSeries


def test_cp_label_key():
    lab = CpLabel(5, "K", "A")
    assert lab.key() == "K>A"


def test_cp_label_validation():
    with pytest.raises(ValueError):
        CpLabel(3, "X", "A")
    with pytest.raises(ValueError):
        CpLabel(-1, "K", "A")


def test_labeled_series_validation():
    vals = np.zeros(10)
    LabeledSeries(vals, [CpLabel(2, "E", "K"), CpLabel(7, "K", "A")])
    with pytest.raises(ValueError):
        LabeledSeries(vals, [CpLabel(12, "E", "K")])  # out of range
    with pytest.raises(ValueError):
        LabeledSeries(vals, [CpLabel(7, "K", "A"), CpLabel(2, "E", "K")])  # order


def test_phase_tags():
    s = LabeledSeries(np.zeros(8), [CpLabel(3, "E", "K"), CpLabel(6, "K", "A")])
    assert "".join(s.phase_tags()) == "EEEKKKAA"


def test_phase_bounds():
    s = LabeledSeries(np.zeros(10), [CpLabel(3, "E", "K"), CpLabel(6, "K", "A")])
    lo, hi = s.phase_bounds(s.cp_labels[1])
    # half open range of the phase the label opens
    assert (lo, hi) == (6, 10)
    lo, hi = s.phase_bounds(s.cp_labels[0])
    assert (lo, hi) == (3, 6)


def test_detection_attribution_time():
    d = Detection(detect_time=40, located_time=33, detector="x", stat_value=1.0)
    assert d.attribution_time == 33
    d2 = Detection(detect_time=40, located_time=None, detector="x", stat_value=1.0)
    assert d2.attribution_time == 40


def test_with_values_keeps_labels():
    s = LabeledSeries(np.arange(6.0), [CpLabel(2, "E", "K")])
    s2 = s.with_values(np.arange(6.0) * 2)
    assert s2.cp_labels == s.cp_labels
    assert s2.values[3] == 6.0
