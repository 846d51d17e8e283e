"""Synthetic scenes: determinism, geometry invariants, row arrays."""

import numpy as np
import pytest

from attnmask.boxes import Box
from attnmask.synth import (
    Sample,
    SynthSpec,
    dataset_hash,
    synth_dataset,
    tight_box,
    to_ground_truth,
)


def _boxes_close(a, b, tol=1e-9) -> bool:
    """Two corner rows (x1, y1, x2, y2) agree entry by entry."""
    return all(abs(x - y) < tol for x, y in zip(a, b))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(canvas=48)  # not a multiple of 32
    with pytest.raises(ValueError):
        SynthSpec(classes=("rectangle", "pentagon"))
    with pytest.raises(ValueError):
        SynthSpec(classes=())
    with pytest.raises(ValueError):
        SynthSpec(n_objects=(3, 1))
    with pytest.raises(ValueError):
        SynthSpec(occlusion_prob=1.5)
    with pytest.raises(ValueError):
        SynthSpec(size_range=(0.0, 0.4))
    assert SynthSpec(canvas=32).num_classes == 3


@pytest.mark.parametrize("canvas, top", [(64, 0.96875), (32, 0.9375)])
def test_spec_keeps_shapes_inside_the_placement_margin(canvas, top):
    # a shape is placed 1 px clear of each edge, so the widest size a canvas
    # takes is (canvas - 2) / canvas; past it the center draw has no room
    with pytest.raises(ValueError, match=rf"size_range must satisfy 0 < low <= high <= {top} \(canvas {canvas} "):
        SynthSpec(canvas=canvas, size_range=(0.9, 0.99))
    for s in synth_dataset(SynthSpec(canvas=canvas, size_range=(top, top)), 3, 4):
        assert (s.boxes >= 0.0).all() and (s.boxes <= canvas).all()


def test_spec_bounds_canvas_and_object_count():
    # a scene keeps at most one object per pixel, and the canvas has a stated cap;
    # past either bound scene generation used to fail inside numpy
    with pytest.raises(ValueError, match=r"canvas must be a multiple of 32 in \[32, 1024\], got 1056"):
        SynthSpec(canvas=1056)
    with pytest.raises(ValueError, match=r"n_objects must be a pair whose high is at most 1024 \(one object per "
                                         r"pixel of canvas 32\), got \(0, 1025\)"):
        SynthSpec(canvas=32, n_objects=(0, 1025))
    with pytest.raises(ValueError, match="high is at most 4096"):
        SynthSpec(n_objects=(0, 2**63))
    assert SynthSpec(canvas=1024).canvas == 1024
    assert SynthSpec(canvas=32, n_objects=(1024, 1024)).n_objects == (1024, 1024)


def test_spec_rejects_repeated_classes():
    # a repeated name would give a class id that no object ever carries
    with pytest.raises(ValueError, match=r"classes must not repeat a name, got \['disk', 'disk'\]"):
        SynthSpec(classes=("disk", "disk"))


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
def test_spec_rejects_bad_noise(noise):
    with pytest.raises(ValueError, match=f"noise must be finite and at least 0, got {noise}"):
        SynthSpec(noise=noise)


def test_dataset_is_deterministic_and_seed_sensitive():
    spec = SynthSpec()
    a = synth_dataset(spec, 7, 6)
    b = synth_dataset(spec, 7, 6)
    assert dataset_hash(a) == dataset_hash(b)
    assert dataset_hash(a) != dataset_hash(synth_dataset(spec, 8, 6))
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        synth_dataset(spec, 7, 0)


def test_sample_shapes_and_value_ranges():
    spec = SynthSpec(canvas=32)
    for s in synth_dataset(spec, 3, 8):
        assert s.image.shape == (3, 32, 32)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert s.masks.dtype == bool
        assert s.masks.shape[1:] == (32, 32)
        assert len(s.boxes) <= spec.n_objects[1]
        for cid in s.class_ids:
            assert 1 <= cid <= spec.num_classes


def test_boxes_are_tight_around_masks():
    for s in synth_dataset(SynthSpec(), 11, 10):
        for box, mask in zip(s.boxes, s.masks):
            assert _boxes_close(box, tight_box(mask))


def test_masks_are_disjoint_ownership():
    # overlapping objects resolve to a single owner per pixel
    spec = SynthSpec(occlusion_prob=1.0, n_objects=(3, 3))
    for s in synth_dataset(spec, 5, 10):
        if len(s.masks):
            assert s.masks.sum(axis=0).max() <= 1


def test_no_occlusion_means_no_box_overlap():
    spec = SynthSpec(occlusion_prob=0.0, n_objects=(2, 3))
    for s in synth_dataset(spec, 9, 12):
        for i in range(len(s.boxes)):
            for j in range(i + 1, len(s.boxes)):
                (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = s.boxes[[i, j]]
                iw = min(ax2, bx2) - max(ax1, bx1)
                ih = min(ay2, by2) - max(ay1, by1)
                assert iw <= 0 or ih <= 0


def test_occlusion_produces_overlaps_somewhere():
    spec = SynthSpec(occlusion_prob=1.0, n_objects=(2, 2), distractor_prob=0.0)
    found = False
    for s in synth_dataset(spec, 1, 20):
        for i in range(len(s.boxes)):
            for j in range(i + 1, len(s.boxes)):
                (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = s.boxes[[i, j]]
                iw = min(ax2, bx2) - max(ax1, bx1)
                ih = min(ay2, by2) - max(ay1, by1)
                found = found or (iw > 0 and ih > 0)
    assert found


def test_to_ground_truth_mapping():
    spec = SynthSpec()
    ds = synth_dataset(spec, 31, 5)
    gt = to_ground_truth(ds, spec.classes)
    assert len(gt.records) == sum(len(s.boxes) for s in ds)
    assert gt.images == {i: (64, 64) for i in range(5)}
    assert gt.categories == {1: "rectangle", 2: "disk", 3: "triangle"}
    flat = [(i, cid) for i, s in enumerate(ds) for cid in s.class_ids]
    assert list(zip(gt.records.image_id.tolist(), gt.records.class_id.tolist())) == flat
    assert not gt.records.iscrowd.any()


def test_tight_box_rejects_empty_mask():
    with pytest.raises(ValueError):
        tight_box(np.zeros((4, 4), dtype=bool))


def test_hash_is_order_sensitive():
    ds = synth_dataset(SynthSpec(), 41, 3)
    assert dataset_hash(ds) != dataset_hash(ds[::-1])


def test_dataset_stream_is_pinned():
    ds = synth_dataset(SynthSpec(), 1001, 24)
    assert dataset_hash(ds) == "fdaa0a197324c629781dd3c1f2437c73d099bfa72eeb8f0014ac615fbce4f273"
    # the train_dataset_sha256 recorded with the benchmark's frozen checkpoint
    # hashed center-form rows (cx, cy, w, h); pixel-aligned boxes convert exactly
    centered = [
        Sample(s.image, np.column_stack([(s.boxes[:, :2] + s.boxes[:, 2:]) / 2.0, s.boxes[:, 2:] - s.boxes[:, :2]]),
               s.class_ids, s.masks)
        for s in ds
    ]
    assert dataset_hash(centered) == "8613d054b6cdc5dc344f34b9c5b5a317ae11810049136827bdbef52cf9579b16"
    # the default validation scenes of train-toy and compare
    val = synth_dataset(SynthSpec(), 2002, 8)
    assert dataset_hash(val) == "53539b497bc6807df6ae47ebc5179d3426fe265e9ea0121af3618ad1532fa818"


def test_scenes_hold_row_arrays():
    for s in synth_dataset(SynthSpec(n_objects=(0, 3)), 13, 12):
        assert s.boxes.dtype == np.float64 and s.boxes.shape == (len(s.masks), 4)
        assert s.boxes.flags.c_contiguous
        assert s.class_ids.dtype == np.int64 and s.class_ids.shape == (len(s.masks),)


def _scene(boxes, class_ids, n_masks=2):
    return Sample(np.zeros((3, 8, 8)), boxes, class_ids, np.zeros((n_masks, 8, 8), dtype=bool))


_PAIR = np.array([1, 2], dtype=np.int64)


@pytest.mark.parametrize(
    "boxes, class_ids, message",
    [
        ([(3.0, 3.0, 5.0, 5.0)] * 2, _PAIR, r"boxes must be an \(N, 4\) float64 array, got list"),
        (np.ones((2, 3)), _PAIR, r"boxes must be an \(N, 4\) float64 array, got float64 array of shape \(2, 3\)"),
        (np.ones((2, 4), dtype=np.float32), _PAIR, r"boxes must be .*, got float32 array of shape \(2, 4\)"),
        (np.ones((2, 4)), np.arange(3), r"class_ids must be a \(2,\) int64 array, got int64 array of shape \(3,\)"),
        (np.ones((2, 4)), [1, 2], r"class_ids must be a \(2,\) int64 array, got list"),
        (np.ones((2, 4)), _PAIR.astype(float), r"class_ids must be .*, got float64 array of shape \(2,\)"),
    ],
    ids=["box-list", "three-columns", "float32-boxes", "class-ids-too-long", "class-id-list", "float-class-ids"],
)
def test_sample_rejects_boxes_and_class_ids_that_are_not_row_arrays(boxes, class_ids, message):
    with pytest.raises(ValueError, match=message):
        _scene(boxes, class_ids)


def test_sample_accepts_an_empty_scene_and_checks_masks_align():
    assert _scene(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), n_masks=0).boxes.shape == (0, 4)
    with pytest.raises(ValueError, match="boxes, class_ids, and masks must align"):
        _scene(np.ones((1, 4)), np.array([1]))


def test_to_ground_truth_makes_corner_rows_with_int64_class_ids():
    spec = SynthSpec()
    ds = synth_dataset(spec, 31, 5)
    gt = to_ground_truth(ds, spec.classes)
    # each record's corners are its scene row's, as they are
    assert gt.records.boxes.tolist() == [row for s in ds for row in s.boxes.tolist()]
    assert gt.records.class_id.dtype == np.int64 and gt.records.image_id.dtype == np.int64
    # the row records the benchmark's infer check reads hold the same corners
    assert [tuple(r.box) for r in gt.records] == [tuple(row) for row in gt.records.boxes.tolist()]
    assert all(type(r.box) is Box and type(r.class_id) is int for r in gt.records)
    assert to_ground_truth([], spec.classes).records.boxes.shape == (0, 4)
