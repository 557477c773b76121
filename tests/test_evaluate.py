"""Tests for scoring, attribution, grid search and winner selection."""

from __future__ import annotations

import numpy as np
import pytest

from predcomp.evaluate import (
    Attribution,
    DetectorGrid,
    EXCESSIVE_DETECTIONS,
    EvalRecord,
    arlp,
    attribute,
    average_max_fpc,
    find_target,
    params_id,
    render_report,
    run_grid,
    score_run,
    select_best,
)
from predcomp.series import CpLabel, Detection, LabeledSeries


def wear_like_series(n=7000):
    labels = [CpLabel(800, "E", "K"), CpLabel(3200, "K", "A"),
              CpLabel(6358, "A", "V")]
    return LabeledSeries(np.zeros(n), labels, name="wear")


def test_arlp_formula():
    assert arlp(3476, 3200, 3158) == pytest.approx(100 * 276 / 3158)
    with pytest.raises(ValueError):
        arlp(10, 0, 0)


def test_attribution_walkthrough():
    series = wear_like_series()
    target = find_target(series, "K>A")
    assert target is not None and target.time == 3200
    dets = [Detection(detect_time=700, detector="d"),
            Detection(detect_time=3476, detector="d"),
            Detection(detect_time=6000, detector="d")]
    att = attribute(dets, series, target)
    assert att.fpc == 1               # the pre-label hit
    assert att.target_found
    assert att.target_detection.detect_time == 3476
    assert att.arlp == pytest.approx(100 * 276 / 3158)
    assert att.discarded == 1         # everything after the find


def test_attribution_uses_located_time_when_present():
    series = wear_like_series()
    target = find_target(series)
    # fired after the label but located before it: counts as a false positive
    det = Detection(detect_time=3300, located_time=3100, detector="d")
    att = attribute([det], series, target)
    assert att.fpc == 1 and not att.target_found


def test_pause_right_after_target_phase_counts_late():
    vals = np.zeros(400)
    labels = [CpLabel(100, "K", "A"), CpLabel(200, "A", "V"), CpLabel(300, "V", "A")]
    series = LabeledSeries(vals, labels, name="paused")
    target = series.cp_labels[0]
    att = attribute([Detection(detect_time=250, detector="d")], series, target)
    assert att.target_found
    assert att.arlp == pytest.approx(150.0)  # delay measured into the pause
    # but a hit past the pause is an ordinary false positive
    att2 = attribute([Detection(detect_time=350, detector="d")], series, target)
    assert not att2.target_found and att2.fpc == 1


def test_pause_elsewhere_is_not_special():
    vals = np.zeros(300)
    labels = [CpLabel(50, "E", "V"), CpLabel(80, "V", "K"), CpLabel(100, "K", "A")]
    series = LabeledSeries(vals, labels, name="vfirst")
    target = series.cp_labels[2]
    att = attribute([Detection(detect_time=60, detector="d")], series, target)
    assert att.fpc == 1 and not att.target_found


def _attribute_by_tags(detections, series, target):
    """:func:`attribute` as it found the pause before: by walking the
    per-index phase tags from the target phase's end."""
    lo, hi = series.phase_bounds(target)
    tags = series.phase_tags()
    pause_hi = hi
    while pause_hi < len(series) and tags[pause_hi] == "V":
        pause_hi += 1
    fpc, found, discarded = 0, None, 0
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
            found = det
        else:
            fpc += 1
    delay = arlp(found.attribution_time, lo, hi - lo) if found else None
    return Attribution(fpc, found is not None, found, delay, discarded)


@pytest.mark.parametrize("labels", [
    # a pause right after the target phase, then a phase that is not paused
    [CpLabel(10, "E", "K"), CpLabel(20, "K", "A"), CpLabel(35, "A", "V"), CpLabel(45, "V", "K")],
    # a V>V chain
    [CpLabel(10, "K", "A"), CpLabel(25, "A", "V"), CpLabel(35, "V", "V"), CpLabel(45, "V", "A")],
    # a pause that runs to the series end
    [CpLabel(10, "K", "A"), CpLabel(30, "A", "V")],
    # V phases that do not follow the target phase
    [CpLabel(5, "E", "V"), CpLabel(12, "V", "K"), CpLabel(20, "K", "A"), CpLabel(40, "A", "K"),
     CpLabel(50, "K", "V")],
    # no pause at all
    [CpLabel(10, "K", "A")],
])
def test_attribute_equals_the_tag_walk(labels):
    n = 60
    series = LabeledSeries(np.zeros(n), labels)
    rng = np.random.default_rng(0)
    runs = [[Detection(i, detector="d")] for i in range(n)]
    runs += [[Detection(i + 2, located_time=i, detector="d")] for i in range(n - 2)]
    runs += [[Detection(int(t), detector="d") for t in rng.integers(0, n, size=k)]
             for k in (2, 3, 5) for _ in range(30)]
    for target in labels:
        for dets in runs:
            assert attribute(dets, series, target) == _attribute_by_tags(dets, series, target)


def test_find_target_missing():
    series = LabeledSeries(np.zeros(10), [CpLabel(3, "E", "K")])
    assert find_target(series, "K>A") is None


def test_params_id_sorted():
    assert params_id({"b": 2, "a": 1}) == "a=1,b=2"
    assert params_id({}) == ""


def test_score_run_fields():
    series = wear_like_series()
    target = find_target(series)
    rec = score_run([Detection(detect_time=3476, located_time=3460, detector="d")],
                    series, target, dataset_id="wear", detector_id="d",
                    params={"h": 5})
    assert rec.dataset_id == "wear" and rec.detector_id == "d"
    assert rec.params_id == "h=5"
    assert rec.n_detections == 1 and rec.fpc == 0
    assert rec.target_found and rec.detect_time == 3476 and rec.located_time == 3460
    assert rec.valid


def _two_datasets():
    labels = [CpLabel(100, "K", "A")]
    a = LabeledSeries(np.zeros(400), labels, name="a")
    b = LabeledSeries(np.zeros(400), labels, name="b")
    return [a, b]


def test_run_grid_scores_every_point_in_order():
    datasets = _two_datasets()

    def runner(series, h):
        return [Detection(detect_time=100 + 2 * h, detector="toy")]

    grid = DetectorGrid("toy", runner, {"h": [3, 1, 2]})
    records = run_grid(datasets, [grid])
    # grid values are scanned in their listed order, datasets in input order
    assert [r.params_id for r in records] == \
        ["h=3", "h=3", "h=1", "h=1", "h=2", "h=2"]
    assert [r.dataset_id for r in records] == ["a", "b"] * 3
    assert all(r.valid and r.target_found for r in records)


def test_run_grid_flags_silent_and_noisy_points():
    datasets = _two_datasets()

    def runner(series, mode):
        if mode == "silent":
            return []
        if mode == "noisy":
            return [Detection(detect_time=i, detector="toy")
                    for i in range(EXCESSIVE_DETECTIONS)]
        return [Detection(detect_time=150, detector="toy")]

    grid = DetectorGrid("toy", runner, {"mode": ["silent", "noisy", "ok"]})
    records = run_grid(datasets, [grid])
    by_mode = {}
    for r in records:
        by_mode.setdefault(r.params["mode"], []).append(r.valid)
    assert by_mode["silent"] == [False, False]
    assert by_mode["noisy"] == [False, False]
    assert by_mode["ok"] == [True, True]


def test_run_grid_requires_target_label():
    bad = LabeledSeries(np.zeros(50), [CpLabel(10, "E", "K")], name="bad")
    grid = DetectorGrid("toy", lambda series: [], {})
    with pytest.raises(ValueError):
        run_grid([bad], [grid])


def _records():
    def rec(ds, det, pid, fpc, arlp_, found=True, valid=True):
        return EvalRecord(dataset_id=ds, detector_id=det, params_id=pid,
                          params={}, n_detections=1, fpc=fpc, target_found=found,
                          arlp=arlp_, detect_time=None, located_time=None,
                          valid=valid)
    return rec


def test_select_best_per_dataset():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 2, 30.0),
        rec("a", "d1", "h=2", 2, 10.0),   # same fpc, lower arlp: wins
        rec("a", "d1", "h=3", 0, 90.0, valid=False),  # skipped
        rec("a", "d1", "h=4", 12, 1.0),   # over the cap
        rec("a", "d2", "h=1", 0, 50.0),
        rec("b", "d1", "h=1", 1, 20.0, found=False),  # no target, skipped
    ]
    winners = select_best(records, scope="per_dataset")
    assert [(w.dataset_id, w.detector_id, w.params_id, w.fpc, w.arlp)
            for w in winners] == [("a", "d1", "h=2", 2, 10.0),
                                  ("a", "d2", "h=1", 0, 50.0)]


def test_select_best_tie_breaks_deterministically():
    rec = _records()
    records = [
        rec("a", "d1", "h=2", 1, 10.0),
        rec("a", "d1", "h=1", 1, 10.0),   # exact tie: smaller params_id wins
    ]
    winners = select_best(records, scope="per_dataset")
    assert winners[0].params_id == "h=1"


def test_select_best_reversed_rule():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 0, 40.0),
        rec("a", "d1", "h=2", 5, 5.0),
    ]
    normal = select_best(records, scope="per_dataset")
    assert normal[0].params_id == "h=1"
    fast = select_best(records, scope="per_dataset", reversed_rule=True)
    assert fast[0].params_id == "h=2"


def test_select_best_overall_requires_full_coverage():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 3, 10.0),
        rec("b", "d1", "h=1", 4, 30.0),
        rec("a", "d1", "h=2", 0, 5.0),    # missing on dataset b: excluded
        rec("b", "d1", "h=2", 0, 5.0, found=False),
    ]
    winners = select_best(records, scope="overall")
    assert len(winners) == 1
    w = winners[0]
    assert (w.detector_id, w.params_id) == ("d1", "h=1")
    assert w.fpc == 7.0                      # summed across datasets
    assert w.arlp == pytest.approx(20.0)     # averaged


def test_select_best_overall_cap():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 100, 10.0),
        rec("b", "d1", "h=1", 100, 10.0),    # sum 200 > default cap 150
    ]
    assert select_best(records, scope="overall") == []
    assert select_best(records, scope="overall", fpc_cap=300) != []


def test_select_best_subset():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 1, 10.0),
        rec("b", "d1", "h=1", 1, 20.0),
        rec("c", "d1", "h=1", 40, 90.0),     # outside the subset, ignored
    ]
    winners = select_best(records, scope="subset", datasets=["a", "b"])
    assert len(winners) == 1
    assert winners[0].fpc == 2.0 and winners[0].arlp == pytest.approx(15.0)
    with pytest.raises(ValueError):
        select_best(records, scope="subset")
    with pytest.raises(ValueError):
        select_best(records, scope="sideways")


def test_average_max_fpc():
    rec = _records()
    records = [
        rec("a", "d1", "h=1", 3, 10.0),
        rec("a", "d2", "h=1", 7, 10.0),
        rec("b", "d1", "h=1", 1, 10.0),
    ]
    assert average_max_fpc(records) == pytest.approx((7 + 1) / 2)
    with pytest.raises(ValueError):
        average_max_fpc([])


def test_render_report():
    rec = _records()
    winners = select_best([rec("a", "d1", "h=1", 2, 33.3333)], scope="per_dataset")
    text = render_report(winners, title="demo")
    assert text.startswith("demo\n====\n")
    assert "d1" in text and "h=1" in text and "33.33" in text
    empty = render_report([], title="none")
    assert "(no run met the criteria)" in empty
