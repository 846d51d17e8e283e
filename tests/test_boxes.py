"""Box algebra and anchors; NMS checked exactly against brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask.boxes import (
    LOG_EXTENT_CAP,
    NMS_BLOCK,
    AnchorConfig,
    Box,
    box_array,
    clip_boxes,
    decode,
    encode,
    generate_anchors,
    iou,
    nms,
    pairwise_iou,
)
from oracles import iou_xyxy, nms_bruteforce, nms_per_label_bruteforce


def test_box_forms_roundtrip():
    # encode and decode read the center (6, 5) and extents (8, 4) of the
    # corner row (2, 3, 10, 7); zero offsets give the row back exactly
    rows = np.array([[2.0, 3.0, 10.0, 7.0]])
    assert encode(rows, np.array([[4.0, 4.0, 12.0, 6.0]])).tolist() == [[0.25, 0.0, 0.0, math.log(0.5)]]
    assert decode(rows, np.zeros((1, 4))).tolist() == rows.tolist()


def test_clip_inside_and_outside():
    rows = np.array([[-5.0, -5.0, 5.0, 5.0], [30.0, 30.0, 40.0, 40.0]])
    clipped, inside = clip_boxes(rows, 20.0, 20.0)
    assert clipped[0].tolist() == [0.0, 0.0, 5.0, 5.0]
    assert inside.tolist() == [True, False]  # the second lies entirely outside
    # one row past the far edge, one crossing it
    clipped, inside = clip_boxes(np.array([[98.0, 6.0, 102.0, 10.0], [60.0, 6.0, 66.0, 10.0]]), 64.0, 64.0)
    assert inside.tolist() == [False, True]
    assert clipped[1].tolist() == [60.0, 6.0, 64.0, 10.0]


def test_iou_fixture_one_seventh():
    a = Box(0, 0, 10, 10)
    b = Box(5, 5, 15, 15)
    assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 25, 25)) == 0.0


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, t = ([rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(1, 30), rng.uniform(1, 30)] for _ in range(2))
        a, t = (np.array([[x, y, x + w, y + h]]) for x, y, w, h in (a, t))
        back = decode(a, encode(a, t))
        assert (np.abs(back - t) <= 1e-9 * np.maximum(1.0, np.abs(t))).all()


def test_identity_delta_is_zero():
    b = np.array([[6.0, 17.0, 14.0, 23.0]])
    assert encode(b, b).tolist() == [[0.0, 0.0, 0.0, 0.0]]


def test_decode_caps_log_extents():
    b = np.array([[-1.0, -1.0, 1.0, 1.0]])
    huge = decode(b, np.array([[0.0, 0.0, 50.0, -50.0]]))[0]
    assert huge[2] - huge[0] == pytest.approx(2.0 * math.exp(LOG_EXTENT_CAP))
    assert huge[3] - huge[1] == pytest.approx(2.0 * math.exp(-LOG_EXTENT_CAP))


def test_generate_anchors_count_and_order():
    cfg = AnchorConfig()
    shapes = {2: (3, 4), 3: (2, 2)}
    anchors = generate_anchors(shapes, cfg)
    assert len(anchors) == 3 * (3 * 4 + 2 * 2)
    centers = (anchors[:, :2] + anchors[:, 2:]) / 2.0
    areas = np.prod(anchors[:, 2:] - anchors[:, :2], axis=1)
    # one row per anchor: the three ratios of a cell, then the next column
    assert centers[:3] == pytest.approx(np.tile(centers[0], (3, 1)))
    assert centers[3] == pytest.approx(centers[0] + [4.0, 0.0])
    # ascending level, then row-major cells, then ratios
    assert areas[0] == pytest.approx(cfg.scale_for(2) ** 2)
    assert areas[3 * 12] == pytest.approx(cfg.scale_for(3) ** 2)
    assert centers[0] == pytest.approx([0.5 * 4, 0.5 * 4])  # stride 4 at level 2


def test_anchor_areas_equal_scale_squared():
    cfg = AnchorConfig(extended_ratios=True)
    anchors = generate_anchors({3: (2, 3), 5: (1, 1)}, cfg)
    assert len(anchors) == 5 * (6 + 1)
    levels = [3] * (5 * 6) + [5] * 5
    for (x1, y1, x2, y2), level in zip(anchors, levels):
        w, h = x2 - x1, y2 - y1
        scale = cfg.scale_for(level)
        assert abs(w * h - scale * scale) <= 1e-6 * scale * scale
        want_ratio = h / w
        assert any(abs(want_ratio - r) < 1e-9 for r in cfg.EXTENDED_RATIOS)


def test_generate_anchors_unknown_level():
    with pytest.raises(ValueError):
        generate_anchors({7: (1, 1)}, AnchorConfig())


def test_anchor_config_validation():
    with pytest.raises(ValueError):
        AnchorConfig(scales=(32.0,), levels=(2, 3))
    with pytest.raises(ValueError):
        AnchorConfig(ratios=(0.5, -1.0))


def test_nms_hand_case():
    boxes = [
        (0, 0, 10, 10),  # kept: highest score
        (1, 1, 11, 11),  # suppressed by the first box
        (30, 30, 40, 40),  # kept: disjoint
        (0, 0, 10, 10),  # suppressed: a duplicate of the first box
    ]
    kept = nms(boxes, [0.9, 0.8, 0.7, 0.2], iou_threshold=0.5)
    assert kept == [0, 2]


def test_nms_score_tie_prefers_lower_index():
    boxes = [(0, 0, 10, 10), (0, 0, 10, 10)]
    assert nms(boxes, [0.9, 0.9], iou_threshold=0.5) == [0]


def test_nms_empty_and_length_mismatch():
    assert nms([], [], 0.5) == []
    with pytest.raises(ValueError):
        nms([(0.5, 0.5, 1.5, 1.5)], [0.5, 0.6], 0.5)
    with pytest.raises(ValueError, match="labels must have equal length"):
        nms([(0.5, 0.5, 1.5, 1.5)] * 2, [0.5, 0.6], 0.5, labels=[0])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"iou_threshold": float("nan")}, r"iou_threshold must be in \[0, 1\], got nan"),
        ({"iou_threshold": -0.1}, r"iou_threshold must be in \[0, 1\], got -0.1"),
        ({"iou_threshold": 1.5}, r"iou_threshold must be in \[0, 1\], got 1.5"),
        ({"iou_threshold": 0.5, "max_keep": 0}, "max_keep must be at least 1, got 0"),
        ({"iou_threshold": 0.5, "max_keep": -1}, "max_keep must be at least 1, got -1"),
    ],
    ids=["nan-threshold", "negative-threshold", "threshold-above-one", "zero-cap", "negative-cap"],
)
def test_nms_rejects_bad_threshold_and_cap(kwargs, message):
    boxes = [(3.0, 3.0, 7.0, 7.0), (3.0, 3.0, 7.0, 7.0)]
    with pytest.raises(ValueError, match=message):
        nms(boxes, [0.9, 0.8], **kwargs)


def test_nms_threshold_bounds_are_valid():
    boxes = [(3.0, 3.0, 7.0, 7.0), (3.0, 3.0, 7.0, 7.0), (18.0, 3.0, 22.0, 7.0)]
    # at 0 any overlap suppresses; at 1 even identical boxes survive
    assert nms(boxes, [0.9, 0.8, 0.7], 0.0) == [0, 2]
    assert nms(boxes, [0.9, 0.8, 0.7], 1.0) == [0, 1, 2]


def test_nms_matches_bruteforce_500_instances():
    rng = np.random.default_rng(7)
    for case in range(500):
        n = int(rng.integers(1, 201))
        x1 = rng.uniform(0, 80, n)
        y1 = rng.uniform(0, 80, n)
        w = rng.uniform(1, 40, n)
        h = rng.uniform(1, 40, n)
        scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
        boxes = np.column_stack([x1, y1, x1 + w, y1 + h])
        thr = float(rng.uniform(0.2, 0.7))
        got = nms(boxes, scores, thr)
        want = nms_bruteforce(boxes.tolist(), scores, thr, score_threshold=0.0)
        assert got == want, f"case {case}: {got} != {want}"


# coordinates on a half-pixel grid make touching, nested and duplicate
# boxes common; the float draws cover everything in between
_coord = st.one_of(st.integers(-20, 60).map(lambda v: v / 2.0), st.floats(-10.0, 30.0))
_extent = st.one_of(st.integers(1, 40).map(lambda v: v / 2.0), st.floats(0.01, 20.0))
_boxes = st.lists(st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), _coord, _coord, _extent, _extent),
                  min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_boxes, _boxes)
def test_iou_forms_agree(a, b):
    # the row array and the record run one rule: the oracle's, bit for bit
    want = [[iou_xyxy(x, y) for y in b] for x in a]
    assert pairwise_iou(box_array(a), box_array(b)).tolist() == want
    assert [[iou(x, y) for y in b] for x in a] == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3 * NMS_BLOCK),
    seed=st.integers(0, 2**32 - 1),
    grid=st.sampled_from([0.5, 2.0, 8.0]),
    thr=st.floats(0.1, 0.9),
    k=st.integers(1, 3 * NMS_BLOCK + 1),
)
def test_array_nms_matches_bruteforce_with_ties(n, seed, grid, thr, k):
    rng = np.random.default_rng(seed)
    # coarse grids repeat boxes; two-decimal scores repeat scores
    xy = np.round(rng.uniform(0, 60, (n, 2)) / grid) * grid
    wh = np.round(rng.uniform(grid, 30, (n, 2)) / grid) * grid
    rows = np.column_stack([xy, xy + wh])
    scores = np.round(rng.uniform(0, 1, n), 2)
    boxes = rows.tolist()
    labels = rng.integers(0, 3, n)
    want = nms_bruteforce(boxes, scores, thr, 0.0)
    want_labelled = nms_per_label_bruteforce(boxes, scores, thr, labels.tolist())
    assert nms(rows, scores, thr) == want
    assert nms(boxes, scores, thr) == want
    assert nms(rows, scores, thr, labels=labels) == want_labelled
    assert nms(boxes, scores, thr, labels=labels.tolist()) == want_labelled
    # a cap keeps the uncapped result's prefix, also where it splits tied
    # scores, lands on or past a block boundary or exceeds the kept count
    for cap in {k, NMS_BLOCK, NMS_BLOCK + 1, len(want) + 1, len(want_labelled) + 1}:
        assert nms(rows, scores, thr, max_keep=cap) == want[:cap]
        assert nms(boxes, scores, thr, max_keep=cap) == want[:cap]
        assert nms(rows, scores, thr, max_keep=cap, labels=labels) == want_labelled[:cap]
        assert nms(boxes, scores, thr, max_keep=cap, labels=labels.tolist()) == want_labelled[:cap]
