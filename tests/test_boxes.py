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
    BoxDelta,
    box_array,
    decode,
    encode,
    generate_anchors,
    iou,
    nms,
    pairwise_iou,
)
from oracles import nms_bruteforce


def test_box_forms_roundtrip():
    b = Box.from_corners(2.0, 3.0, 10.0, 7.0)
    assert (b.cx, b.cy, b.w, b.h) == (6.0, 5.0, 8.0, 4.0)
    assert Box.from_coco(b.to_coco()) == b
    assert b.area == 32.0


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box(5.0, 5.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        Box(5.0, 5.0, 2.0, -1.0)


def test_clip_inside_and_outside():
    b = Box.from_corners(-5.0, -5.0, 5.0, 5.0).clip(20.0, 20.0)
    assert (b.x1, b.y1, b.x2, b.y2) == (0.0, 0.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        Box.from_corners(30.0, 30.0, 40.0, 40.0).clip(20.0, 20.0)


def test_iou_fixture_one_seventh():
    a = Box.from_coco((0, 0, 10, 10))
    b = Box.from_coco((5, 5, 10, 10))
    assert iou(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert iou(a, a) == 1.0
    assert iou(a, Box.from_coco((20, 20, 5, 5))) == 0.0


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = Box(rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(1, 30), rng.uniform(1, 30))
        t = Box(rng.uniform(5, 50), rng.uniform(5, 50), rng.uniform(1, 30), rng.uniform(1, 30))
        back = decode(a, encode(a, t))
        for got, want in zip((back.cx, back.cy, back.w, back.h), (t.cx, t.cy, t.w, t.h)):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_identity_delta_is_zero():
    b = Box(10.0, 20.0, 8.0, 6.0)
    d = encode(b, b)
    assert (d.tx, d.ty, d.tw, d.th) == (0.0, 0.0, 0.0, 0.0)


def test_decode_caps_log_extents():
    b = Box(0.0, 0.0, 2.0, 2.0)
    huge = decode(b, BoxDelta(0.0, 0.0, 50.0, -50.0))
    assert huge.w == pytest.approx(2.0 * math.exp(LOG_EXTENT_CAP))
    assert huge.h == pytest.approx(2.0 * math.exp(-LOG_EXTENT_CAP))


def test_delta_rejects_non_finite():
    with pytest.raises(ValueError):
        BoxDelta(0.0, float("nan"), 0.0, 0.0)


def test_generate_anchors_count_and_order():
    cfg = AnchorConfig()
    shapes = {2: (3, 4), 3: (2, 2)}
    anchors = generate_anchors(shapes, cfg)
    assert len(anchors) == 3 * (3 * 4 + 2 * 2)
    # one row per anchor: the three ratios of a cell, then the next column
    assert (anchors[:3, :2] == anchors[0, :2]).all()
    assert anchors[3, 0] == anchors[0, 0] + 4.0 and anchors[3, 1] == anchors[0, 1]
    # ascending level, then row-major cells, then ratios
    assert anchors[0, 2] * anchors[0, 3] == pytest.approx(cfg.scale_for(2) ** 2)
    assert anchors[3 * 12, 2] * anchors[3 * 12, 3] == pytest.approx(cfg.scale_for(3) ** 2)
    first = anchors[0]
    assert (first[0], first[1]) == (0.5 * 4, 0.5 * 4)  # stride 4 at level 2


def test_anchor_areas_equal_scale_squared():
    cfg = AnchorConfig(extended_ratios=True)
    anchors = generate_anchors({3: (2, 3), 5: (1, 1)}, cfg)
    assert len(anchors) == 5 * (6 + 1)
    levels = [3] * (5 * 6) + [5] * 5
    for (_, _, w, h), level in zip(anchors, levels):
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
        Box.from_coco((0, 0, 10, 10)),  # kept: highest score
        Box.from_coco((1, 1, 10, 10)),  # suppressed by the first box
        Box.from_coco((30, 30, 10, 10)),  # kept: disjoint
        Box.from_coco((0, 0, 10, 10)),  # below the score threshold
    ]
    kept = nms(boxes, [0.9, 0.8, 0.7, 0.2], iou_threshold=0.5)
    assert kept == [0, 2]


def test_nms_score_tie_prefers_lower_index():
    boxes = [Box.from_coco((0, 0, 10, 10)), Box.from_coco((0, 0, 10, 10))]
    assert nms(boxes, [0.9, 0.9], iou_threshold=0.5) == [0]


def test_nms_empty_and_length_mismatch():
    assert nms([], [], 0.5) == []
    with pytest.raises(ValueError):
        nms([Box(1, 1, 1, 1)], [0.5, 0.6], 0.5)


def test_nms_matches_bruteforce_500_instances():
    rng = np.random.default_rng(7)
    for case in range(500):
        n = int(rng.integers(1, 201))
        x1 = rng.uniform(0, 80, n)
        y1 = rng.uniform(0, 80, n)
        w = rng.uniform(1, 40, n)
        h = rng.uniform(1, 40, n)
        scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
        boxes = [Box.from_coco((x1[i], y1[i], w[i], h[i])) for i in range(n)]
        xyxy = [(b.x1, b.y1, b.x2, b.y2) for b in boxes]
        thr = float(rng.uniform(0.2, 0.7))
        got = nms(boxes, scores, thr, score_threshold=0.3)
        want = nms_bruteforce(xyxy, scores, thr, score_threshold=0.3)
        assert got == want, f"case {case}: {got} != {want}"


# coordinates on a half-pixel grid make touching, nested and duplicate
# boxes common; the float draws cover everything in between
_coord = st.one_of(st.integers(-20, 60).map(lambda v: v / 2.0), st.floats(-10.0, 30.0))
_extent = st.one_of(st.integers(1, 40).map(lambda v: v / 2.0), st.floats(0.01, 20.0))
_boxes = st.lists(st.builds(Box, _coord, _coord, _extent, _extent), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_boxes, _boxes)
def test_pairwise_iou_equals_scalar_iou(a, b):
    got = pairwise_iou(box_array(a), box_array(b))
    assert got.tolist() == [[iou(x, y) for y in b] for x in a]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3 * NMS_BLOCK),
    seed=st.integers(0, 2**32 - 1),
    grid=st.sampled_from([0.5, 2.0, 8.0]),
    thr=st.floats(0.1, 0.9),
)
def test_array_nms_matches_bruteforce_with_ties(n, seed, grid, thr):
    rng = np.random.default_rng(seed)
    # coarse grids repeat boxes; two-decimal scores repeat scores
    xy = np.round(rng.uniform(0, 60, (n, 2)) / grid) * grid
    wh = np.round(rng.uniform(grid, 30, (n, 2)) / grid) * grid
    rows = np.column_stack([xy + wh / 2.0, wh])
    scores = np.round(rng.uniform(0, 1, n), 2)
    boxes = [Box(*row) for row in rows.tolist()]
    want = nms_bruteforce([(b.x1, b.y1, b.x2, b.y2) for b in boxes], scores, thr, 0.2)
    assert nms(rows, scores, thr, score_threshold=0.2) == want
    assert nms(boxes, scores, thr, score_threshold=0.2) == want
