"""Synthetic detection scenes with exact ground truth.

Each image composites colored shapes (the foreground classes) over a
noisy background, optionally with non-class distractor shapes and with
controlled occlusion between object pairs. Shapes are rasterized by
membership tests at pixel centers and compositing tracks per-pixel
ownership, so every ground-truth mask is the exact visible region of its
object and every ground-truth box is the tight bounding box of that
mask. Fully occluded objects are dropped.

Class ids are 1-based indices into the spec's class tuple (0 is reserved
for background in the detector heads).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box
from .coco_io import GroundTruth
from .metrics import GTRecord

__all__ = [
    "SUPPORTED_SHAPES",
    "SynthSpec",
    "Sample",
    "synth_dataset",
    "hflip",
    "tight_box",
    "dataset_hash",
    "to_ground_truth",
]

SUPPORTED_SHAPES = ("rectangle", "disk", "triangle")

_COLORS = {
    "rectangle": (0.85, 0.25, 0.25),
    "disk": (0.25, 0.85, 0.30),
    "triangle": (0.25, 0.35, 0.90),
}

_BACKGROUND = 0.12


@dataclass(frozen=True)
class SynthSpec:
    """Scene recipe; (spec, seed, n) fully determines a dataset."""

    canvas: int = 64
    classes: tuple[str, ...] = SUPPORTED_SHAPES
    n_objects: tuple[int, int] = (1, 3)
    size_range: tuple[float, float] = (0.18, 0.38)
    distractor_prob: float = 0.25
    occlusion_prob: float = 0.25
    noise: float = 0.02

    def __post_init__(self):
        if self.canvas < 32 or self.canvas % 32:
            raise ValueError(f"canvas must be a positive multiple of 32, got {self.canvas}")
        bad = [c for c in self.classes if c not in SUPPORTED_SHAPES]
        if bad or not self.classes:
            raise ValueError(f"unsupported classes {bad}; choose from {SUPPORTED_SHAPES}")
        lo, hi = self.n_objects
        if not 0 <= lo <= hi:
            raise ValueError(f"bad n_objects range {self.n_objects}")
        for name, p in (("distractor_prob", self.distractor_prob), ("occlusion_prob", self.occlusion_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        if not 0.0 < self.size_range[0] <= self.size_range[1] < 1.0:
            raise ValueError(f"bad size_range {self.size_range}")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and at least 0, got {self.noise}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass
class Sample:
    """One scene: 3xHxW image in [0,1], per-object boxes/classes/masks."""

    image: np.ndarray
    boxes: list[Box]
    class_ids: list[int]
    masks: np.ndarray

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise ValueError(f"image must be 3xHxW, got {self.image.shape}")
        if not (len(self.boxes) == len(self.class_ids) == len(self.masks)):
            raise ValueError("boxes, class_ids, and masks must align")


def tight_box(mask: np.ndarray) -> Box:
    """The smallest pixel-aligned box covering a non-empty binary mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise ValueError("empty mask has no bounding box")
    r0, r1 = int(rows[0]), int(rows[-1])
    c0, c1 = int(cols[0]), int(cols[-1])
    return Box.from_coco((float(c0), float(r0), float(c1 - c0 + 1), float(r1 - r0 + 1)))


def _pixel_centers(h: int, w: int):
    ys, xs = np.mgrid[0:h, 0:w]
    return ys + 0.5, xs + 0.5


def _raster(shape: str, cx, cy, w, h, canvas: int) -> np.ndarray:
    ys, xs = _pixel_centers(canvas, canvas)
    if shape == "rectangle":
        return (np.abs(xs - cx) <= w / 2) & (np.abs(ys - cy) <= h / 2)
    if shape == "disk":
        return ((xs - cx) / (w / 2)) ** 2 + ((ys - cy) / (h / 2)) ** 2 <= 1.0
    if shape == "triangle":
        verts = ((cx, cy - h / 2), (cx - w / 2, cy + h / 2), (cx + w / 2, cy + h / 2))
        signs = []
        for i in range(3):
            (ax, ay), (bx, by) = verts[i], verts[(i + 1) % 3]
            signs.append((bx - ax) * (ys - ay) - (by - ay) * (xs - ax))
        signs = np.stack(signs)
        return (signs >= 0).all(axis=0) | (signs <= 0).all(axis=0)
    if shape == "ring":
        d2 = ((xs - cx) / (w / 2)) ** 2 + ((ys - cy) / (h / 2)) ** 2
        return (d2 <= 1.0) & (d2 >= 0.36)
    raise ValueError(f"unknown shape {shape!r}")


def _overlap_frac(a: Box, b: Box) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / min(a.area, b.area)


def _sample_dims(rng, spec: SynthSpec):
    lo, hi = spec.size_range
    return spec.canvas * rng.uniform(lo, hi), spec.canvas * rng.uniform(lo, hi)


def _sample_center(rng, spec: SynthSpec, w, h):
    m = 1.0
    cx = rng.uniform(w / 2 + m, spec.canvas - w / 2 - m)
    cy = rng.uniform(h / 2 + m, spec.canvas - h / 2 - m)
    return cx, cy


def _place(rng, spec: SynthSpec, existing: list[Box], occlude: Box | None, tries: int = 60):
    """Find a box that either avoids all existing boxes or overlaps the
    chosen target by a 20-60 percent fraction of the smaller box."""
    for _ in range(tries):
        w, h = _sample_dims(rng, spec)
        if occlude is None:
            cx, cy = _sample_center(rng, spec, w, h)
        else:
            span_x, span_y = (occlude.w + w) / 2, (occlude.h + h) / 2
            cx = occlude.cx + rng.uniform(-0.9, 0.9) * span_x
            cy = occlude.cy + rng.uniform(-0.9, 0.9) * span_y
            cx = min(max(cx, w / 2), spec.canvas - w / 2)
            cy = min(max(cy, h / 2), spec.canvas - h / 2)
        box = Box(cx, cy, w, h)
        fracs = [_overlap_frac(box, b) for b in existing]
        if occlude is None:
            if all(f == 0.0 for f in fracs):
                return box
        elif 0.2 <= _overlap_frac(box, occlude) <= 0.6 and max(fracs) <= 0.6:
            return box
    return None


def _synth_one(rng: np.random.Generator, spec: SynthSpec) -> Sample:
    canvas = spec.canvas
    owner = np.full((canvas, canvas), -1, dtype=np.int64)
    paint = np.full((3, canvas, canvas), _BACKGROUND)

    placed: list[Box] = []
    shapes: list[tuple[str, Box, np.ndarray]] = []
    n_obj = int(rng.integers(spec.n_objects[0], spec.n_objects[1] + 1))
    for k in range(n_obj):
        occlude = None
        if placed and rng.random() < spec.occlusion_prob:
            occlude = placed[int(rng.integers(len(placed)))]
        box = _place(rng, spec, placed, occlude)
        if box is None:
            continue
        cls = int(rng.integers(spec.num_classes))
        shapes.append((spec.classes[cls], box, np.array(_COLORS[spec.classes[cls]])))
        placed.append(box)

    # distractors render first so objects always sit on top of them
    if rng.random() < spec.distractor_prob:
        box = _place(rng, spec, placed, None)
        if box is not None:
            color = rng.uniform(0.3, 0.75, size=3)
            m = _raster("ring", box.cx, box.cy, box.w, box.h, canvas)
            owner[m] = -2
            paint[:, m] = color[:, None]

    class_ids: list[int] = []
    for k, (shape_name, box, color) in enumerate(shapes):
        m = _raster(shape_name, box.cx, box.cy, box.w, box.h, canvas)
        jitter = rng.uniform(-0.05, 0.05)
        owner[m] = k
        paint[:, m] = np.clip(color + jitter, 0.0, 1.0)[:, None]
        class_ids.append(spec.classes.index(shape_name) + 1)

    image = np.clip(paint + spec.noise * rng.standard_normal(paint.shape), 0.0, 1.0)

    boxes, ids, masks = [], [], []
    for k in range(len(shapes)):
        m = owner == k
        if not m.any():
            continue
        boxes.append(tight_box(m))
        ids.append(class_ids[k])
        masks.append(m)
    mask_arr = np.stack(masks) if masks else np.zeros((0, canvas, canvas), dtype=bool)
    return Sample(image=image, boxes=boxes, class_ids=ids, masks=mask_arr)


def synth_dataset(spec: SynthSpec, seed: int, n: int) -> list[Sample]:
    """Generate n deterministic scenes from (spec, seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.PCG64(seed))
    return [_synth_one(rng, spec) for _ in range(n)]


def hflip(sample: Sample) -> Sample:
    """Mirror a scene left to right; boxes and masks move with the image."""
    w = sample.image.shape[2]
    return Sample(
        image=sample.image[:, :, ::-1].copy(),
        boxes=[Box(w - b.cx, b.cy, b.w, b.h) for b in sample.boxes],
        class_ids=list(sample.class_ids),
        masks=sample.masks[:, :, ::-1].copy(),
    )


def dataset_hash(samples: list[Sample]) -> str:
    """SHA-256 over images, classes, boxes, and masks; order-sensitive."""
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s.image).tobytes())
        h.update(np.array(s.class_ids, dtype=np.int64).tobytes())
        h.update(np.array([[b.cx, b.cy, b.w, b.h] for b in s.boxes], dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(s.masks).astype(np.uint8).tobytes())
    return h.hexdigest()


def to_ground_truth(samples: list[Sample], classes: tuple[str, ...]) -> GroundTruth:
    """Express a dataset in the evaluator's ground-truth form (ids = index)."""
    records = []
    images = {}
    for img_id, s in enumerate(samples):
        images[img_id] = (s.image.shape[2], s.image.shape[1])
        for b, cid in zip(s.boxes, s.class_ids):
            records.append(GTRecord(image_id=img_id, class_id=cid, box=b, iscrowd=False))
    categories = {i + 1: name for i, name in enumerate(classes)}
    return GroundTruth(records=records, images=images, categories=categories)
