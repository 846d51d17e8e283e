"""Synthetic scenes: determinism, geometry invariants, horizontal flip."""

import numpy as np
import pytest

from attnmask.boxes import Box
from attnmask.synth import (
    SynthSpec,
    dataset_hash,
    hflip,
    synth_dataset,
    tight_box,
    to_ground_truth,
)


def _boxes_close(a: Box, b: Box, tol=1e-9) -> bool:
    return all(abs(x - y) < tol for x, y in zip((a.cx, a.cy, a.w, a.h), (b.cx, b.cy, b.w, b.h)))


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
    with pytest.raises(ValueError):
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
                a, b = s.boxes[i], s.boxes[j]
                iw = min(a.x2, b.x2) - max(a.x1, b.x1)
                ih = min(a.y2, b.y2) - max(a.y1, b.y1)
                assert iw <= 0 or ih <= 0


def test_occlusion_produces_overlaps_somewhere():
    spec = SynthSpec(occlusion_prob=1.0, n_objects=(2, 2), distractor_prob=0.0)
    found = False
    for s in synth_dataset(spec, 1, 20):
        for i in range(len(s.boxes)):
            for j in range(i + 1, len(s.boxes)):
                a, b = s.boxes[i], s.boxes[j]
                iw = min(a.x2, b.x2) - max(a.x1, b.x1)
                ih = min(a.y2, b.y2) - max(a.y1, b.y1)
                found = found or (iw > 0 and ih > 0)
    assert found


def test_hflip_is_an_involution():
    for s in synth_dataset(SynthSpec(), 21, 4):
        f = hflip(s)
        ff = hflip(f)
        assert np.array_equal(ff.image, s.image)
        assert np.array_equal(ff.masks, s.masks)
        assert all(_boxes_close(a, b) for a, b in zip(ff.boxes, s.boxes))
        w = s.image.shape[2]
        for orig, flip in zip(s.boxes, f.boxes):
            assert flip.cx == pytest.approx(w - orig.cx)
            assert flip.cy == orig.cy and flip.w == orig.w and flip.h == orig.h


def test_hflip_keeps_boxes_tight():
    for s in synth_dataset(SynthSpec(), 22, 4):
        f = hflip(s)
        for box, mask in zip(f.boxes, f.masks):
            assert _boxes_close(box, tight_box(mask))


def test_to_ground_truth_mapping():
    spec = SynthSpec()
    ds = synth_dataset(spec, 31, 5)
    gt = to_ground_truth(ds, spec.classes)
    assert len(gt.records) == sum(len(s.boxes) for s in ds)
    assert gt.images == {i: (64, 64) for i in range(5)}
    assert gt.categories == {1: "rectangle", 2: "disk", 3: "triangle"}
    flat = [(i, cid) for i, s in enumerate(ds) for cid in s.class_ids]
    assert [(r.image_id, r.class_id) for r in gt.records] == flat
    assert not any(r.iscrowd for r in gt.records)


def test_tight_box_rejects_empty_mask():
    with pytest.raises(ValueError):
        tight_box(np.zeros((4, 4), dtype=bool))


def test_hash_is_order_sensitive():
    ds = synth_dataset(SynthSpec(), 41, 3)
    assert dataset_hash(ds) != dataset_hash(ds[::-1])
