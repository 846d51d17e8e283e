"""Evaluator: matching semantics, AP fixtures, oracle agreement."""

import hashlib
import json
import re
from typing import NamedTuple

import numpy as np
import pytest

from attnmask import metrics
from attnmask.boxes import Box, box_array, pairwise_iou
from attnmask.metrics import (
    COCO_SWEEP,
    CROWD_IGNORED,
    MAX_DETS,
    Detection,
    DetTable,
    GTTable,
    average_precision,
    format_table,
    map_report,
    match,
)
from numeric_env import digest_context
from oracles import ap_reference, map_reference, match_reference


class GT(NamedTuple):
    """One ground-truth box, as a row of GTTable."""

    image_id: int
    class_id: int
    box: Box
    iscrowd: bool


def _det(score, box, img=0, cid=1):
    return Detection(image_id=img, class_id=cid, box=box, score=score)


def _gt(box, img=0, cid=1, crowd=False):
    return GT(image_id=img, class_id=cid, box=box, iscrowd=crowd)


def _tables(dets, gts):
    """map_report's two tables of _det and _gt rows, with their values in their order."""
    return DetTable.of(dets), GTTable(np.array([g.image_id for g in gts], dtype=np.int64),
                                      np.array([g.class_id for g in gts], dtype=np.int64),
                                      box_array([g.box for g in gts]), np.array([g.iscrowd for g in gts], dtype=bool))


def B(xywh):
    """The Box of a COCO [x, y, w, h], as coco_io reads it."""
    x, y, w, h = map(float, xywh)
    return Box(x, y, x + w, y + h)


def test_detection_score_validation():
    with pytest.raises(ValueError, match=r"score must be in \[0,1\], got 1\.5"):
        DetTable.of([_det(0.5, B((0, 0, 4, 4))), _det(1.5, B((0, 0, 4, 4)))])
    with pytest.raises(ValueError, match=r"score must be in \[0,1\], got nan"):
        DetTable.of([_det(float("nan"), B((0, 0, 4, 4)))])


def _columns(n=2, **changed):
    """The columns of an n-row table, with changed ones swapped in."""
    cols = dict(image_id=np.zeros(n, dtype=np.int64), class_id=np.ones(n, dtype=np.int64),
                boxes=np.tile([0.0, 0.0, 4.0, 4.0], (n, 1)))
    return {**cols, **changed}


@pytest.mark.parametrize("table, last", [(DetTable, {"score": np.full(2, 0.5)}),
                                         (GTTable, {"iscrowd": np.zeros(2, dtype=bool)})], ids=["det", "gt"])
@pytest.mark.parametrize("changed, message", [
    ({"class_id": np.ones(3, dtype=np.int64)}, r"class_id must be a \(2,\) int64 array, got int64 array of shape \(3,\)"),
    ({"boxes": np.zeros((2, 5))}, r"boxes must be an \(N, 4\) float64 array, got float64 array of shape \(2, 5\)"),
    ({"boxes": np.zeros((2, 4), dtype=np.float32)}, r"boxes must be an \(N, 4\) float64 array, got float32"),
    ({"boxes": [[0.0, 0.0, 4.0, 4.0]] * 2}, r"boxes must be an \(N, 4\) float64 array, got list"),
    ({"image_id": np.zeros(2, dtype=np.int32)}, r"image_id must be a \(2,\) int64 array, got int32"),
    ({"class_id": np.ones(2)}, r"class_id must be a \(2,\) int64 array, got float64"),
], ids=["lengths-differ", "boxes-not-n-by-4", "boxes-not-float64", "boxes-not-array", "image-id-int32",
        "class-id-float"])
def test_tables_check_their_columns(table, last, changed, message):
    table(**_columns(**last))  # the unchanged columns make a table
    with pytest.raises(ValueError, match=message):
        table(**_columns(**last, **changed))


def test_table_last_columns_have_their_dtype_and_length():
    with pytest.raises(ValueError, match=r"score must be a \(2,\) float64 array, got float32"):
        DetTable(**_columns(score=np.full(2, 0.5, dtype=np.float32)))
    with pytest.raises(ValueError, match=r"iscrowd must be a \(2,\) bool array, got int64 array of shape \(2,\)"):
        GTTable(**_columns(iscrowd=np.zeros(2, dtype=np.int64)))
    with pytest.raises(ValueError, match=r"score must be a \(2,\) float64 array, got float64 array of shape \(1,\)"):
        DetTable(**_columns(score=np.full(1, 0.5)))


@pytest.mark.parametrize("score", [-0.25, 1.5, float("inf"), float("nan")])
def test_det_table_scores_are_finite_and_in_unit_range(score):
    with pytest.raises(ValueError, match=r"score must be in \[0,1\], got "):
        DetTable(**_columns(score=np.array([0.5, score])))


def _overlaps(boxes, gts):
    """match's two stacks for one group: the (1, D, G) IoUs of boxes, listed
    in score order, with its real boxes and the (1, D, C) IoUs with its
    crowd regions."""
    ious = pairwise_iou(box_array(boxes), box_array([g.box for g in gts]))
    crowd = np.array([g.iscrowd for g in gts], dtype=bool)
    return ious[None, :, ~crowd], ious[None, :, crowd]


def test_match_greedy_prefers_higher_score():
    gt = [_gt(B((0, 0, 10, 10)))]
    low, high = B((1, 1, 10, 10)), B((1.5, 1.5, 10, 10))  # IoU ~0.68 and ~0.57
    # rows in score order: the high scorer takes the box, the other is FP
    assert list(match(*_overlaps([high, low], gt), (0.5,))[0, 0]) == [1, 0]
    # map_report ranks by score, not input order: a TP ahead of the FP is AP 1
    rep = map_report(*_tables([_det(0.6, low), _det(0.9, high)], gt), (0.5,))
    assert rep.counts[0.5] == (1, 1, 0) and rep.ap[0.5][1] == 1.0


def test_match_rejects_row_mismatch():
    with pytest.raises(ValueError, match=r"same groups and rows, got shapes \(1, 2, 1\) and \(1, 1, 0\)"):
        match(np.zeros((1, 2, 1)), np.zeros((1, 1, 0)), (0.5,))
    with pytest.raises(ValueError, match=r"same groups and rows, got shapes \(2, 1, 1\) and \(1, 1, 0\)"):
        match(np.zeros((2, 1, 1)), np.zeros((1, 1, 0)), (0.5,))
    with pytest.raises(ValueError, match=r"\(B, D, G\) and \(B, D, C\) stacks"):
        match(np.zeros((2, 1)), np.zeros((2, 0)), (0.5,))


def test_match_crowd_is_fallback_not_first_choice():
    # a real box and a crowd region overlap the detection; the real box wins
    gt = [_gt(B((0, 0, 10, 10))), _gt(B((0, 0, 14, 14)), crowd=True)]
    assert list(match(*_overlaps([B((0, 0, 10, 10))], gt), (0.5,))[0, 0]) == [1]

    # with the real box taken, the next detection falls into the crowd
    flags = match(*_overlaps([B((0, 0, 10, 10)), B((2, 2, 10, 10))], gt), (0.5,))
    assert list(flags[0, 0]) == [1, CROWD_IGNORED]


def test_match_only_crowd_gt():
    gt = [_gt(B((0, 0, 15, 15)), crowd=True)]  # IoU ~0.44 with the det
    assert list(match(*_overlaps([B((1, 1, 10, 10))], gt), (0.3,))[0, 0]) == [CROWD_IGNORED]


def test_match_threshold_is_inclusive_and_ties_take_the_first_box():
    # IoU exactly 0.5 (a half-height box) qualifies at 0.5, against a real
    # box and against a crowd region alike
    half = [B((0, 0, 10, 5))]
    assert list(match(*_overlaps(half, [_gt(B((0, 0, 10, 10)))]), (0.5, 0.55))[:, 0, 0]) == [1, 0]
    crowd = [_gt(B((0, 0, 10, 10)), crowd=True)]
    assert list(match(*_overlaps(half, crowd), (0.5, 0.55))[:, 0, 0]) == [CROWD_IGNORED, 0]
    # the first detection overlaps both boxes at IoU 1/3 and takes the first,
    # so the second, a copy of that first box, finds nothing left
    gt = [_gt(B((0, 0, 10, 10))), _gt(B((10, 0, 10, 10)))]
    assert list(match(*_overlaps([B((5, 0, 10, 10)), B((0, 0, 10, 10))], gt), (0.3,))[0, 0]) == [1, 0]


def test_match_runs_every_threshold_in_one_call():
    # row t of one multi-threshold call is the oracle's pass at thresholds[t]
    rng = np.random.default_rng(5)
    gt = [_gt(B((x, y, 10, 10)), crowd=(k == 3)) for k, (x, y) in enumerate(rng.uniform(0, 12, (4, 2)))]
    dets = [_det(round(float(s), 1), B((x, y, 10, 10))) for s, x, y in rng.uniform(0, 1, (9, 3)) * (1, 14, 14)]
    thresholds = (0.3, 0.5, 0.75, 0.95)
    flags = match(*_overlaps([d.box for d in sorted(dets, key=lambda d: -d.score)], gt), thresholds)
    assert flags.shape == (4, 1, 9) and flags.dtype == np.int8
    want_flags = [match_reference(
        [(d.score, (d.box.x1, d.box.y1, d.box.x2, d.box.y2)) for d in dets],
        [((g.box.x1, g.box.y1, g.box.x2, g.box.y2), g.iscrowd) for g in gt], thr)[0] for thr in thresholds]
    assert [list(row) for row in flags[:, 0]] == want_flags
    assert match(*_overlaps([], gt), thresholds).shape == (4, 1, 0)


def test_padded_stack_matches_reference_per_group():
    # groups of unequal rows and boxes in one stack: padded columns read 0.0
    # and padded rows, after each group's own, hold random IoUs; each group's
    # flags are the oracle's at every threshold
    rng = np.random.default_rng(41)
    thresholds = COCO_SWEEP + (0.3,)
    groups = []
    for k in range(16):
        # group 0 has no detections, 1 only crowd regions, 2 no boxes at all
        n_real = 0 if k in (1, 2) else int(rng.integers(1, 6))
        n_crowd = 2 if k == 1 else 0 if k == 2 else int(rng.integers(0, 3))
        gts = [(tuple(B((*rng.uniform(0, 40, 2), *rng.uniform(6, 16, 2)))), kind)
               for kind in [False] * n_real + [True] * n_crowd]
        dets = []
        for _ in range(0 if k == 0 else int(rng.integers(1, 9))):
            if gts and rng.uniform() < 0.7:
                x1, y1, x2, y2 = gts[int(rng.integers(len(gts)))][0]
                dx, dy = rng.uniform(-0.3, 0.3, 2) * (x2 - x1, y2 - y1)
                box = (x1 + dx, y1 + dy, x2 + dx, y2 + dy)
            else:  # far from every box: a row of zero IoUs
                box = tuple(B((*rng.uniform(100, 140, 2), *rng.uniform(6, 16, 2))))
            dets.append((round(float(rng.uniform(0, 1)), 1), box))  # a 0.1 grid, so scores tie
        groups.append((dets, gts))
    d_max, g_max, c_max = (max(len(x) for x in sizes) for sizes in zip(*(
        (dets, [g for g in gts if not g[1]], [g for g in gts if g[1]]) for dets, gts in groups)))
    ious, crowd = rng.uniform(0, 1, (len(groups), d_max, g_max)), rng.uniform(0, 1, (len(groups), d_max, c_max))
    zero_rows = 0
    for b, (dets, gts) in enumerate(groups):
        rows = box_array([box for _, box in sorted(dets, key=lambda d: -d[0])])  # stable: ties keep their order
        for stack, kind in ((ious, False), (crowd, True)):
            cols = box_array([box for box, is_crowd in gts if is_crowd == kind])
            stack[b, :len(rows)] = 0.0
            stack[b, :len(rows), :len(cols)] = pairwise_iou(rows, cols)
        zero_rows += int((ious[b, :len(rows)].max(axis=1, initial=0.0) == 0.0).sum())
    assert zero_rows > 0
    flags = match(ious, crowd, thresholds)
    assert flags.shape == (len(thresholds), len(groups), d_max)
    for b, (dets, gts) in enumerate(groups):
        for t, thr in enumerate(thresholds):
            assert list(flags[t, b, :len(dets)]) == match_reference(dets, gts, thr)[0], (b, thr)


@pytest.mark.parametrize("seed", range(20))
def test_ap_ignores_crowd_entries_bit_for_bit(seed):
    # crowd-ignored entries stay in the rows: adding 6 to each row at random
    # places (row 0 always gets a leading one) or removing them again leaves
    # every row's AP unchanged
    rng = np.random.default_rng(seed)
    t, d = int(rng.integers(1, 5)), int(rng.integers(0, 12))
    scored = rng.integers(0, 2, (t, d)).astype(np.int8)
    n_gt = int(scored.sum(axis=1).max(initial=0)) + int(rng.integers(1, 4))
    mixed = np.full((t, d + 6), CROWD_IGNORED, dtype=np.int8)
    for row in range(t):
        mixed[row, np.sort(rng.choice(np.arange(row == 0, d + 6), d, replace=False))] = scored[row]
    assert mixed[0, 0] == CROWD_IGNORED
    want = average_precision(scored, n_gt)
    np.testing.assert_array_equal(average_precision(mixed, n_gt), want)
    for row in range(t):
        kept = mixed[row][mixed[row] != CROWD_IGNORED]
        np.testing.assert_array_equal(average_precision(kept[None], n_gt), want[row:row + 1])


def test_ap_fixture_perfect_single():
    assert average_precision(np.array([[1]]), 1)[0] == pytest.approx(1.0, abs=1e-12)


def test_ap_fixture_envelope_saves_trailing_fp():
    # TP then FP, one GT: envelope precision is 1.0 at every recall point
    assert average_precision(np.array([[1, 0]]), 1)[0] == pytest.approx(1.0, abs=1e-12)


def test_ap_fixture_half():
    # FP then TP, one GT: interpolated precision 0.5 at all recalls
    assert average_precision(np.array([[0, 1]]), 1)[0] == pytest.approx(0.5, abs=1e-12)


def test_ap_empty_curve_is_zero():
    ap = average_precision(np.zeros((3, 0), dtype=np.int8), 3)
    assert ap.shape == (3,)
    np.testing.assert_array_equal(ap, 0.0)


def test_ap_samples_a_recall_that_lands_on_a_grid_point():
    # 7 matches of 10 boxes reach recall 0.7 exactly: the curve holds
    # precision 1 at the 71 samples 0, 0.01, ..., 0.70
    flags = np.array([[1, 1, 1, 0, 1, 1, 1, 1, 0]])
    assert average_precision(flags, 10)[0] == pytest.approx(ap_reference(list(flags[0]), 10), abs=1e-12)


def test_ap_rows_match_reference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n_gt = int(rng.integers(1, 31))
        flags = rng.choice(np.array([1, 0, CROWD_IGNORED], dtype=np.int8), (4, int(rng.integers(0, 15))),
                           p=(0.5, 0.35, 0.15))
        flags[:, np.cumsum(flags == 1, axis=1).max(axis=0) > n_gt] = 0  # no more TPs than ground truth
        got = average_precision(flags, n_gt)
        want = [ap_reference(list(row), n_gt) for row in flags]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_ap_needs_ground_truth():
    with pytest.raises(ValueError, match="n_gt must be at least 1, got 0"):
        average_precision(np.array([[1]]), 0)


def test_map_report_perfect_predictions_all_ones():
    gts, dets = [], []
    rng = np.random.default_rng(0)
    for img in range(3):
        for cid in (1, 2):
            x, y = rng.uniform(0, 40, 2)
            box = B((x, y, 10 + img, 8 + cid))
            gts.append(_gt(box, img=img, cid=cid))
            dets.append(_det(0.9, box, img=img, cid=cid))
    rep = map_report(*_tables(dets, gts))
    assert rep.map50 == pytest.approx(1.0)
    assert rep.map75 == pytest.approx(1.0)
    assert rep.map_coco == pytest.approx(1.0)
    assert rep.counts[0.5] == (6, 0, 0)


def test_map_report_localization_quality_splits_thresholds():
    # IoU 0.6 detection: a hit at 0.5, a miss at 0.75
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 6)))]
    rep = map_report(*_tables(det, gt))
    assert rep.map50 == pytest.approx(1.0)
    assert rep.map75 == pytest.approx(0.0)


@pytest.mark.parametrize("box", [Box(5.0, 5.0, 4.0, 9.0), Box(0.0, 3.0, 4.0, 3.0), Box(0.0, 0.0, float("nan"), 4.0)],
                         ids=["inverted-x", "flat-y", "nan"])
@pytest.mark.parametrize("side", ["det", "gt"])
def test_map_report_rejects_empty_boxes(box, side):
    # a second bad row after the first: the message names the first
    good = B((0, 0, 10, 10))
    dets, gts = [_det(0.9, good)], [_gt(good)]
    for bad in (box, Box(2.0, 2.0, 1.0, 1.0)):
        (dets if side == "det" else gts).append(_det(0.5, bad) if side == "det" else _gt(bad))
    first = re.escape(str([box.x1, box.y1, box.x2, box.y2]))
    with pytest.raises(ValueError, match=rf"boxes need x2 > x1 and y2 > y1, got {first}$"):
        map_report(*_tables(dets, gts))


def test_map_report_threshold_argument():
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 6)))]  # IoU 0.6
    assert map_report(*_tables(det, gt), thresholds=None).thresholds == COCO_SWEEP
    for bad in ((), [-2], [0.0], [1.0], [0.5, 1.5], [float("nan")]):
        with pytest.raises(ValueError, match="IoU thresholds"):
            map_report(*_tables(det, gt), thresholds=bad)


def test_map_report_drops_repeated_thresholds():
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 6)))]  # IoU 0.6
    rep = map_report(*_tables(det, gt), thresholds=(0.5, 0.500001, 0.75, 0.5))
    assert rep.thresholds == (0.5, 0.75)
    payload = rep.to_json()
    assert payload["thresholds"] == [0.5, 0.75]
    assert list(payload["map_by_thr"]) == ["0.50", "0.75"] and list(payload["counts"]) == ["0.50", "0.75"]
    assert rep.map_by_thr == {0.5: 1.0, 0.75: 0.0}
    assert payload == map_report(*_tables(det, gt), thresholds=(0.5, 0.75)).to_json()


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
    rep = map_report(*_tables(dets, gts))
    mean = np.mean([rep.map_by_thr[t] for t in COCO_SWEEP])
    assert rep.map_coco == pytest.approx(mean, abs=1e-12)
    assert rep.thresholds == COCO_SWEEP


def test_classes_without_gt_are_excluded():
    gts = [_gt(B((0, 0, 10, 10)), cid=1)]
    dets = [
        _det(0.9, B((0, 0, 10, 10)), cid=1),
        _det(0.8, B((20, 20, 10, 10)), cid=7),  # no GT for class 7
    ]
    rep = map_report(*_tables(dets, gts))
    assert rep.class_ids == (1,)
    assert rep.map50 == pytest.approx(1.0)


def test_crowd_only_class_is_excluded():
    gts = [_gt(B((0, 0, 30, 30)), cid=3, crowd=True), _gt(B((0, 0, 10, 10)), cid=1)]
    rep = map_report(*_tables([_det(0.9, B((0, 0, 10, 10)), cid=1)], gts))
    assert rep.class_ids == (1,)


def test_max_dets_cap_applies_per_image_and_class():
    gt = [_gt(B((0, 0, 10, 10)))]
    # one perfect detection, listed first, under MAX_DETS junk boxes with higher scores
    hit = _det(0.5, B((0, 0, 10, 10)))
    junk = [_det(0.99, B((50, 50, 5, 5)))] * MAX_DETS
    assert map_report(*_tables([hit] + junk, gt)).counts[0.5] == (0, MAX_DETS, 1)  # capped away by score
    # the cap is per group: the same junk in another image or class leaves it
    for other in ({"img": 1}, {"cid": 2}):
        moved = [_det(0.99, B((50, 50, 5, 5)), **other)] * MAX_DETS
        assert map_report(*_tables([hit] + moved, gt)).counts[0.5][0] == 1
    # one junk box fewer leaves room for the true positive
    assert map_report(*_tables([hit] + junk[1:], gt)).counts[0.5][0] == 1


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
        rep = map_report(*_tables(dets, gts), thresholds=[thr])
        want = map_reference(det_tuples, gt_tuples, thr)
        got = rep.map_by_thr[round(thr, 2)]
        assert abs(got - want) < 1e-9, f"case {case}: {got} vs {want}"


def _random_case(rng, n_img):
    """Up to 3 boxes per (image, class), one in five a crowd region, and up to
    4 detections each: jittered copies of a box or random ones, with scores
    on a 0.1 grid so ties are common. Returns attnmask records and the
    oracle's tuples."""
    gts, dets, gt_tuples, det_tuples = [], [], [], []
    for img in range(n_img):
        for cid in (1, 2):
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                x, y = rng.uniform(0, 30, 2)
                w, h = rng.uniform(4, 14, 2)
                crowd = bool(rng.uniform() < 0.2)
                box = B((x, y, w, h))
                boxes.append((x, y, w, h))
                gts.append(_gt(box, img=img, cid=cid, crowd=crowd))
                gt_tuples.append((img, cid, (box.x1, box.y1, box.x2, box.y2), crowd))
            for _ in range(int(rng.integers(0, 5))):
                if boxes and rng.uniform() < 0.6:
                    x, y, w, h = boxes[int(rng.integers(len(boxes)))]
                    x, y = x + rng.uniform(-0.25, 0.25) * w, y + rng.uniform(-0.25, 0.25) * h
                else:
                    x, y = rng.uniform(0, 30, 2)
                    w, h = rng.uniform(4, 14, 2)
                score = round(float(rng.uniform(0, 1)), 1)
                box = B((x, y, w, h))
                dets.append(_det(score, box, img=img, cid=cid))
                det_tuples.append((img, cid, score, (box.x1, box.y1, box.x2, box.y2)))
    return gts, dets, gt_tuples, det_tuples


def test_one_multi_threshold_call_matches_reference_200_instances():
    # the CLI's default call passes all 10 sweep thresholds at once
    rng = np.random.default_rng(29)
    thresholds = COCO_SWEEP + (0.3,)
    for case in range(200):
        gts, dets, gt_tuples, det_tuples = _random_case(rng, int(rng.integers(1, 4)))
        rep = map_report(*_tables(dets, gts), thresholds=thresholds)
        assert rep.thresholds == thresholds
        for thr in thresholds:
            want = map_reference(det_tuples, gt_tuples, thr)
            got = rep.map_by_thr[thr]
            assert abs(got - want) < 1e-9, f"case {case} at {thr}: {got} vs {want}"


def _recording(monkeypatch, name):
    """Swap metrics.<name> for a wrapper that appends each call's arguments
    to the returned list, and calls the original."""
    real, calls = getattr(metrics, name), []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metrics, name, recorded)
    return calls


def test_iou_calls_do_not_grow_with_thresholds(monkeypatch):
    # one IoU stack per batch of groups, whatever the number of thresholds:
    # this file's groups fit in one batch at one threshold and at ten
    iou_calls, match_calls = _recording(monkeypatch, "pairwise_iou"), _recording(monkeypatch, "match")
    gts, dets, _, _ = _random_case(np.random.default_rng(3), 6)
    classes = {g.class_id for g in gts if not g.iscrowd}
    scored = {(r.class_id, r.image_id) for r in gts + dets if r.class_id in classes}
    n_calls = []
    for thresholds in ((0.5,), COCO_SWEEP):
        iou_calls.clear(), match_calls.clear()
        map_report(*_tables(dets, gts), thresholds=thresholds)
        n_calls.append((len(iou_calls), len(match_calls)))
        assert len(match_calls[0][0]) == len(scored)  # every scored group in the one batch
    assert n_calls == [(1, 1)] * 2


def test_batches_stay_within_match_cells(monkeypatch):
    # one image with many boxes among many small groups: padding every group
    # to the big one would take far more than MATCH_CELLS, so the groups are
    # matched in several batches, each within it unless it is one group
    match_calls = _recording(monkeypatch, "match")
    rng = np.random.default_rng(17)
    gts, dets, gt_tuples, det_tuples = _random_case(rng, 150)
    for k in range(120):
        x, y = rng.uniform(0, 300, 2)
        w, h = rng.uniform(4, 30, 2)
        box = B((x, y, w, h))
        gts.append(_gt(box, img=0, cid=1, crowd=k % 9 == 0))
        gt_tuples.append((0, 1, (box.x1, box.y1, box.x2, box.y2), k % 9 == 0))
        if k % 2:
            jittered = B((x + rng.uniform(-2, 2), y + rng.uniform(-2, 2), w, h))
            score = round(float(rng.uniform(0, 1)), 1)
            dets.append(_det(score, jittered, img=0, cid=1))
            det_tuples.append((0, 1, score, (jittered.x1, jittered.y1, jittered.x2, jittered.y2)))
    thresholds = (0.5, 0.75)
    rep = map_report(*_tables(dets, gts), thresholds=thresholds)
    assert all(ious.shape == crowd.shape for ious, crowd, _ in match_calls)
    cells = [len(thresholds) * ious.shape[0] * ious.shape[1] * max(ious.shape[2], 1) for ious, _, _ in match_calls]
    assert len(cells) > 1 and max(ious.shape[2] for ious, _, _ in match_calls) >= 100
    assert all(c <= metrics.MATCH_CELLS or len(ious) == 1 for c, (ious, _, _) in zip(cells, match_calls))
    assert sum(len(ious) for ious, _, _ in match_calls) == len({(d.class_id, d.image_id) for d in dets + gts})
    for thr in thresholds:
        assert abs(rep.map_by_thr[thr] - map_reference(det_tuples, gt_tuples, thr)) < 1e-9, thr


# sha256 of json.dumps(map_report(...).to_json()) on _digest_scene() at
# COCO_SWEEP, recorded with the matcher that ran once per threshold and the
# AP that built one P-R curve per (class, threshold); a change to any byte of
# a report changes it. The corner IoU and the k/100 recall grid reproduce it,
# and every threshold's mAP equals map_reference within 1e-9, as the test checks
REPORT_DIGEST = "4d42abc7079689c65d67abd175a0c06b18b201d000a30e5825cc57beb6ebfe6b"
REPORT_DIGEST_ENV = {"numpy": "2.4.6", "blas_core": "SkylakeX", "blas_threads": 2}


def _digest_scene():
    """20 images of 3 classes: boxes (one in seven a crowd region), jittered
    copies at graded overlap, some with the wrong class, and random false
    positives, all scored on a 0.1 grid so ties are common."""
    rng = np.random.default_rng(2020)
    gts, dets = [], []
    for img in range(20):
        for _ in range(int(rng.integers(1, 6))):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(6, 30, 2)
            cid = int(rng.integers(1, 4))
            gts.append(_gt(B((x, y, w, h)), img=img, cid=cid, crowd=bool(rng.uniform() < 1 / 7)))
            for shift in rng.uniform(0.0, 0.5, int(rng.integers(0, 5))):
                cls = cid if rng.uniform() < 0.85 else int(rng.integers(1, 4))
                score = round(float(rng.uniform(0, 1)), 1)
                dets.append(_det(score, B((x + shift * w, y + shift * h / 2, w, h)), img=img, cid=cls))
        for _ in range(int(rng.integers(0, 4))):
            x, y = rng.uniform(0, 60, 2)
            w, h = rng.uniform(6, 30, 2)
            dets.append(_det(round(float(rng.uniform(0, 0.6)), 1), B((x, y, w, h)), img=img,
                             cid=int(rng.integers(1, 4))))
    return gts, dets


def test_report_digest_is_unchanged():
    gts, dets = _digest_scene()
    rep = map_report(*_tables(dets, gts), thresholds=COCO_SWEEP)
    assert any(g.iscrowd for g in gts) and 0.0 < rep.map_coco < 1.0
    det_tuples = [(d.image_id, d.class_id, d.score, d.box) for d in dets]
    gt_tuples = [(g.image_id, g.class_id, g.box, g.iscrowd) for g in gts]
    for thr in COCO_SWEEP:
        assert abs(rep.map_by_thr[thr] - map_reference(det_tuples, gt_tuples, thr)) <= 1e-9, thr
    assert hashlib.sha256(json.dumps(rep.to_json()).encode()).hexdigest() == REPORT_DIGEST, \
        digest_context(REPORT_DIGEST_ENV)


def test_format_table_shape():
    gt = [_gt(B((0, 0, 10, 10)))]
    det = [_det(0.9, B((0, 0, 10, 10)))]
    rep = map_report(*_tables(det, gt))
    text = format_table([("cbam", rep), ("se", rep)])
    lines = text.splitlines()
    assert lines[0].split() == ["Model", "mAP@0.5", "mAP@0.75", "mAP@[0.5:0.95]"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    assert "1.0000" in lines[2]


def test_report_json_roundtrips_through_builtin_types():
    import json

    gt = [_gt(B((0, 0, 10, 10)))]
    rep = map_report(*_tables([_det(0.9, B((0, 0, 10, 10)))], gt))
    payload = json.loads(json.dumps(rep.to_json()))
    assert payload["map50"] == pytest.approx(1.0)
    assert payload["ap"]["0.50"]["1"] == pytest.approx(1.0)
