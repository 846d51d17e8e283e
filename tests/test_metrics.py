"""Evaluator: matching semantics, AP fixtures, oracle agreement."""

import numpy as np
import pytest

from attnmask.boxes import Box
from attnmask.metrics import (
    COCO_SWEEP,
    CROWD_IGNORED,
    Detection,
    GTRecord,
    average_precision,
    format_table,
    map_report,
    match,
    pr_curve,
)
from oracles import map_reference


def _det(score, box, img=0, cid=1):
    return Detection(image_id=img, class_id=cid, box=box, score=score)


def _gt(box, img=0, cid=1, crowd=False):
    return GTRecord(image_id=img, class_id=cid, box=box, iscrowd=crowd)


B = Box.from_coco


def test_detection_score_validation():
    with pytest.raises(ValueError):
        _det(1.5, B((0, 0, 4, 4)))
    with pytest.raises(ValueError):
        _det(float("nan"), B((0, 0, 4, 4)))


def test_match_greedy_prefers_higher_score():
    gt = [_gt(B((0, 0, 10, 10)))]
    dets = [
        _det(0.6, B((1, 1, 10, 10))),      # IoU ~0.68, lower score
        _det(0.9, B((1.5, 1.5, 10, 10))),  # IoU ~0.57, higher score: wins
    ]
    res = match(dets, gt, 0.5)
    assert list(res.scores) == [0.9, 0.6]
    # flags follow score order: high scorer takes the box, other is FP
    assert list(res.flags) == [1, 0]
    assert res.n_gt == 1


def test_match_rejects_mixed_groups():
    with pytest.raises(ValueError):
        match([_det(0.9, B((0, 0, 4, 4)), img=0)], [_gt(B((0, 0, 4, 4)), img=1)], 0.5)


def test_match_crowd_is_fallback_not_first_choice():
    # a real box and a crowd region overlap the detection; the real box wins
    gt = [_gt(B((0, 0, 10, 10))), _gt(B((0, 0, 14, 14)), crowd=True)]
    res = match([_det(0.9, B((0, 0, 10, 10)))], gt, 0.5)
    assert list(res.flags) == [1]
    assert res.n_gt == 1  # crowd ground truth is not counted

    # with the real box taken, the next detection falls into the crowd
    dets = [_det(0.9, B((0, 0, 10, 10))), _det(0.8, B((2, 2, 10, 10)))]
    res = match(dets, gt, 0.5)
    assert list(res.flags) == [1, CROWD_IGNORED]


def test_match_only_crowd_gt():
    gt = [_gt(B((0, 0, 15, 15)), crowd=True)]  # IoU ~0.44 with the det
    res = match([_det(0.9, B((1, 1, 10, 10)))], gt, 0.3)
    assert list(res.flags) == [CROWD_IGNORED]
    assert res.n_gt == 0


def test_pr_curve_drops_ignored_and_counts():
    flags = np.array([1, CROWD_IGNORED, 0, 1])
    curve = pr_curve(flags, n_gt=4)
    assert curve.tp == 2 and curve.fp == 1
    assert np.allclose(curve.precision, [1.0, 0.5, 2.0 / 3.0])
    assert np.allclose(curve.recall, [0.25, 0.25, 0.5])


def test_ap_fixture_perfect_single():
    curve = pr_curve(np.array([1]), n_gt=1)
    assert average_precision(curve) == pytest.approx(1.0, abs=1e-12)


def test_ap_fixture_envelope_saves_trailing_fp():
    # TP then FP, one GT: envelope precision is 1.0 at every recall point
    curve = pr_curve(np.array([1, 0]), n_gt=1)
    assert average_precision(curve) == pytest.approx(1.0, abs=1e-12)


def test_ap_fixture_half():
    # FP then TP, one GT: interpolated precision 0.5 at all recalls
    curve = pr_curve(np.array([0, 1]), n_gt=1)
    assert average_precision(curve) == pytest.approx(0.5, abs=1e-12)


def test_ap_empty_curve_is_zero():
    curve = pr_curve(np.array([], dtype=np.int8), n_gt=3)
    assert average_precision(curve) == 0.0


def test_map_report_perfect_predictions_all_ones():
    gts, dets = [], []
    rng = np.random.default_rng(0)
    for img in range(3):
        for cid in (1, 2):
            x, y = rng.uniform(0, 40, 2)
            box = B((x, y, 10 + img, 8 + cid))
            gts.append(_gt(box, img=img, cid=cid))
            dets.append(_det(0.9, box, img=img, cid=cid))
    rep = map_report(dets, gts)
    assert rep.map50 == pytest.approx(1.0)
    assert rep.map75 == pytest.approx(1.0)
    assert rep.map_coco == pytest.approx(1.0)
    assert rep.counts[0.5] == (6, 0, 0)


def test_map_report_localization_quality_splits_thresholds():
    # IoU 0.6 detection: a hit at 0.5, a miss at 0.75
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 6)))]
    rep = map_report(det, gt)
    assert rep.map50 == pytest.approx(1.0)
    assert rep.map75 == pytest.approx(0.0)


def test_map_report_threshold_argument():
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 6)))]  # IoU 0.6
    assert map_report(det, gt, thresholds=None).thresholds == COCO_SWEEP
    for bad in ((), [-2], [0.0], [1.0], [0.5, 1.5], [float("nan")]):
        with pytest.raises(ValueError, match="IoU thresholds"):
            map_report(det, gt, thresholds=bad)


def test_map_coco_recomposes_from_thresholds():
    rng = np.random.default_rng(1)
    gts, dets = [], []
    for img in range(4):
        for k in range(3):
            x, y = rng.uniform(0, 40, 2)
            w, h = rng.uniform(6, 16, 2)
            gts.append(_gt(B((x, y, w, h)), img=img, cid=1 + k % 2))
            if rng.uniform() < 0.8:
                jitter = rng.uniform(-3, 3, 2)
                dets.append(
                    _det(round(float(rng.uniform(0.3, 1.0)), 2),
                         B((x + jitter[0], y + jitter[1], w, h)), img=img, cid=1 + k % 2)
                )
    rep = map_report(dets, gts)
    mean = np.mean([rep.map_by_thr[t] for t in COCO_SWEEP])
    assert rep.map_coco == pytest.approx(mean, abs=1e-12)
    assert rep.thresholds == COCO_SWEEP


def test_classes_without_gt_are_excluded():
    gts = [_gt(B((0, 0, 10, 10)), cid=1)]
    dets = [
        _det(0.9, B((0, 0, 10, 10)), cid=1),
        _det(0.8, B((20, 20, 10, 10)), cid=7),  # no GT for class 7
    ]
    rep = map_report(dets, gts)
    assert rep.class_ids == (1,)
    assert rep.map50 == pytest.approx(1.0)


def test_crowd_only_class_is_excluded():
    gts = [_gt(B((0, 0, 30, 30)), cid=3, crowd=True), _gt(B((0, 0, 10, 10)), cid=1)]
    rep = map_report([_det(0.9, B((0, 0, 10, 10)), cid=1)], gts)
    assert rep.class_ids == (1,)


def test_max_dets_cap_applies_per_image_and_class():
    gt = [_gt(B((0, 0, 10, 10)))]
    # one perfect detection buried under 100 junk boxes with higher scores
    dets = [_det(0.99, B((50, 50, 5, 5)))] * 100 + [_det(0.5, B((0, 0, 10, 10)))]
    rep = map_report(dets, gt, max_dets=100)
    assert rep.counts[0.5][0] == 0  # the true positive was capped away
    rep_full = map_report(dets, gt, max_dets=101)
    assert rep_full.counts[0.5][0] == 1


def test_matches_exhaustive_reference_200_instances():
    rng = np.random.default_rng(23)
    for case in range(200):
        n_img = int(rng.integers(1, 3))
        classes = [1, 2]
        gts, dets = [], []
        gt_tuples, det_tuples = [], []
        for img in range(n_img):
            for cid in classes:
                for _ in range(int(rng.integers(0, 4))):
                    x, y = rng.uniform(0, 30, 2)
                    w, h = rng.uniform(4, 14, 2)
                    crowd = bool(rng.uniform() < 0.2)
                    box = B((x, y, w, h))
                    gts.append(_gt(box, img=img, cid=cid, crowd=crowd))
                    gt_tuples.append((img, cid, (box.x1, box.y1, box.x2, box.y2), crowd))
                for _ in range(int(rng.integers(0, 5))):
                    x, y = rng.uniform(0, 30, 2)
                    w, h = rng.uniform(4, 14, 2)
                    score = round(float(rng.uniform(0, 1)), 2)
                    box = B((x, y, w, h))
                    dets.append(_det(score, box, img=img, cid=cid))
                    det_tuples.append((img, cid, score, (box.x1, box.y1, box.x2, box.y2)))
        thr = float(rng.choice([0.3, 0.5, 0.75]))
        rep = map_report(dets, gts, thresholds=[thr])
        want = map_reference(det_tuples, gt_tuples, thr)
        got = rep.map_by_thr[round(thr, 2)]
        assert abs(got - want) < 1e-9, f"case {case}: {got} vs {want}"


def test_format_table_shape():
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 10)))]
    rep = map_report(det, gt)
    text = format_table([("cbam", rep), ("se", rep)])
    lines = text.splitlines()
    assert lines[0].split() == ["Model", "mAP@0.5", "mAP@0.75", "mAP@[0.5:0.95]"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    assert "1.0000" in lines[2]


def test_report_json_roundtrips_through_builtin_types():
    import json

    gt = [_gt(B((0, 0, 10, 10)))]
    rep = map_report([_det(0.9, B((0, 0, 10, 10)))], gt)
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["map50"] == pytest.approx(1.0)
    assert payload["ap"]["0.50"]["1"] == pytest.approx(1.0)
