"""Synthetic detection scenes with exact ground truth.

Each image composites colored shapes (the foreground classes) over a
noisy background, optionally with non-class distractor shapes and with
controlled occlusion between object pairs. Shapes are rasterized by
membership tests at pixel centers and compositing tracks per-pixel
ownership, so every ground-truth mask is the exact visible region of its
object and every ground-truth box is the tight bounding box of that
mask. Fully occluded objects are dropped.

Scenes hold (N, 4) float64 corner box rows (x1, y1, x2, y2) and (N,)
int64 class ids, 1-based indices into the spec's class tuple (0 is
background in the detector heads); `to_ground_truth` hands both to the
evaluator as they are. Shapes are placed and rasterized from plain
(cx, cy, w, h) tuples in Python floats, shape parameters rather than
boxes: an array op per placement try made generation a third slower.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .coco_io import GroundTruth
from .inputs import require
from .metrics import GTTable, check_columns

__all__ = [
    "SUPPORTED_SHAPES",
    "SynthSpec",
    "Sample",
    "synth_dataset",
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

# the widest canvas a spec takes: one 1024 px scene's float64 image is 24 MiB,
# and each shape's raster builds a few more canvas-sized arrays
MAX_CANVAS = 1024


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
        require(self, f"a multiple of 32 in [32, {MAX_CANVAS}]", lambda v: 32 <= v <= MAX_CANVAS and v % 32 == 0,
                "canvas")
        require(self, "at least one shape name", len, "classes")
        bad = [c for c in self.classes if c not in SUPPORTED_SHAPES]
        if bad:
            raise ValueError(f"unsupported classes {bad}; choose from {SUPPORTED_SHAPES}")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"classes must not repeat a name, got {list(self.classes)}")
        require(self, "a pair 0 <= low <= high", lambda v: 0 <= v[0] <= v[1], "n_objects")
        cells = self.canvas * self.canvas  # every kept object owns a pixel of its own
        require(self, f"a pair whose high is at most {cells} (one object per pixel of canvas {self.canvas})",
                lambda v: v[1] <= cells, "n_objects")
        require(self, "in [0,1]", lambda v: 0.0 <= v <= 1.0, "distractor_prob", "occlusion_prob")
        # _sample_center keeps a 1 px margin on each side of a shape
        top = (self.canvas - 2) / self.canvas
        if not 0.0 < self.size_range[0] <= self.size_range[1] <= top:
            raise ValueError(f"size_range must satisfy 0 < low <= high <= {top} (canvas {self.canvas} "
                             f"less a 1 px margin on each side), got {self.size_range}")
        require(self, "finite and at least 0", lambda v: 0.0 <= v < math.inf, "noise")

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@dataclass
class Sample:
    """One scene: 3xHxW image in [0,1], (N, 4) corner rows, (N,) class ids, (N, H, W) masks."""

    image: np.ndarray
    boxes: np.ndarray
    class_ids: np.ndarray
    masks: np.ndarray

    def __post_init__(self):
        if self.image.ndim != 3 or self.image.shape[0] != 3:
            raise ValueError(f"image must be 3xHxW, got {self.image.shape}")
        check_columns(self, class_ids=np.int64)
        if len(self.masks) != len(self.boxes):
            raise ValueError("boxes, class_ids, and masks must align")


def tight_box(mask: np.ndarray) -> tuple[float, float, float, float]:
    """The smallest pixel-aligned (x1, y1, x2, y2) row covering a non-empty binary mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise ValueError("empty mask has no bounding box")
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


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


def _overlap_frac(a: tuple, b: tuple) -> float:
    """Intersection of two (cx, cy, w, h) tuples over the smaller area."""
    (acx, acy, aw, ah), (bcx, bcy, bw, bh) = a, b
    iw = min(acx + aw / 2.0, bcx + bw / 2.0) - max(acx - aw / 2.0, bcx - bw / 2.0)
    ih = min(acy + ah / 2.0, bcy + bh / 2.0) - max(acy - ah / 2.0, bcy - bh / 2.0)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / min(aw * ah, bw * bh)


def _sample_dims(rng, spec: SynthSpec):
    lo, hi = spec.size_range
    return spec.canvas * rng.uniform(lo, hi), spec.canvas * rng.uniform(lo, hi)


def _sample_center(rng, spec: SynthSpec, w, h):
    m = 1.0
    cx = rng.uniform(w / 2 + m, spec.canvas - w / 2 - m)
    cy = rng.uniform(h / 2 + m, spec.canvas - h / 2 - m)
    return cx, cy


def _place(rng, spec: SynthSpec, existing: list[tuple], occlude: tuple | None, tries: int = 60):
    """Find a (cx, cy, w, h) box that either avoids all existing boxes or
    overlaps the chosen target by a 20-60 percent fraction of the smaller box."""
    for _ in range(tries):
        w, h = _sample_dims(rng, spec)
        if occlude is None:
            cx, cy = _sample_center(rng, spec, w, h)
        else:
            ocx, ocy, ow, oh = occlude
            span_x, span_y = (ow + w) / 2, (oh + h) / 2
            cx = ocx + rng.uniform(-0.9, 0.9) * span_x
            cy = ocy + rng.uniform(-0.9, 0.9) * span_y
            cx = min(max(cx, w / 2), spec.canvas - w / 2)
            cy = min(max(cy, h / 2), spec.canvas - h / 2)
        box = (cx, cy, w, h)
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

    placed: list[tuple] = []
    shapes: list[tuple[int, tuple]] = []
    n_obj = int(rng.integers(spec.n_objects[0], spec.n_objects[1] + 1))
    for k in range(n_obj):
        occlude = None
        if placed and rng.random() < spec.occlusion_prob:
            occlude = placed[int(rng.integers(len(placed)))]
        box = _place(rng, spec, placed, occlude)
        if box is None:
            continue
        shapes.append((int(rng.integers(spec.num_classes)), box))
        placed.append(box)

    # distractors render first so objects always sit on top of them
    if rng.random() < spec.distractor_prob:
        box = _place(rng, spec, placed, None)
        if box is not None:
            color = rng.uniform(0.3, 0.75, size=3)
            m = _raster("ring", *box, canvas)
            owner[m] = -2
            paint[:, m] = color[:, None]

    for k, (cls, box) in enumerate(shapes):
        m = _raster(spec.classes[cls], *box, canvas)
        jitter = rng.uniform(-0.05, 0.05)
        owner[m] = k
        paint[:, m] = np.clip(np.array(_COLORS[spec.classes[cls]]) + jitter, 0.0, 1.0)[:, None]

    image = np.clip(paint + spec.noise * rng.standard_normal(paint.shape), 0.0, 1.0)

    boxes, ids, masks = [], [], []
    for k, (cls, _) in enumerate(shapes):
        m = owner == k
        if not m.any():
            continue
        boxes.append(tight_box(m))
        ids.append(cls + 1)
        masks.append(m)
    mask_arr = np.stack(masks) if masks else np.zeros((0, canvas, canvas), dtype=bool)
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return Sample(image=image, boxes=boxes, class_ids=np.array(ids, dtype=np.int64), masks=mask_arr)


def synth_dataset(spec: SynthSpec, seed: int, n: int) -> list[Sample]:
    """Generate n deterministic scenes from (spec, seed)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    return [_synth_one(rng, spec) for _ in range(n)]


def dataset_hash(samples: list[Sample]) -> str:
    """SHA-256 over images, classes, boxes, and masks; order-sensitive."""
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s.image).tobytes())
        h.update(s.class_ids.tobytes())
        h.update(s.boxes.tobytes())
        h.update(np.ascontiguousarray(s.masks).astype(np.uint8).tobytes())
    return h.hexdigest()


def to_ground_truth(samples: list[Sample], classes: tuple[str, ...]) -> GroundTruth:
    """Express a dataset in the evaluator's ground-truth form (ids = index)."""
    rows = np.concatenate([np.zeros((0, 4))] + [s.boxes for s in samples])
    records = GTTable(
        image_id=np.repeat(np.arange(len(samples), dtype=np.int64), [len(s.boxes) for s in samples]),
        class_id=np.concatenate([np.zeros(0, dtype=np.int64)] + [s.class_ids for s in samples]),
        boxes=rows,
        iscrowd=np.zeros(len(rows), dtype=bool),
    )
    images = {img_id: (s.image.shape[2], s.image.shape[1]) for img_id, s in enumerate(samples)}
    categories = {i + 1: name for i, name in enumerate(classes)}
    return GroundTruth(records=records, images=images, categories=categories)
