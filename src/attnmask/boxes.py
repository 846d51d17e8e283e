"""Box algebra: IoU, offset encoding, anchor grids and non-maximum suppression.

Coordinates are continuous pixels with the origin at the image's top-left
corner. Boxes are closed regions in center form (cx, cy, w, h) with
area = w * h (no +1 convention). The COCO top-left [x, y, w, h] layout is
accepted and emitted only at module boundaries.

Inside the region path boxes travel as (N, 4) float64 arrays of the same
center-form rows. Corners are always cx -/+ w/2 and areas w*h, the very
expressions of the Box properties, so an array result equals the scalar
one bit for bit. `box_array` turns a list of Box into rows and
``Box(*row)`` turns a row back; the scalar `encode`, `decode` and
`Box.clip` wrap the array code, so each formula exists once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "BoxDelta",
    "AnchorConfig",
    "box_array",
    "corners",
    "iou",
    "pairwise_iou",
    "encode",
    "decode",
    "encode_boxes",
    "decode_boxes",
    "clip_boxes",
    "generate_anchors",
    "nms",
    "LOG_EXTENT_CAP",
]

# |tw| and |th| are capped here when decoding so a wild regression output
# cannot produce a box with overflowing area.
LOG_EXTENT_CAP = math.log(1000.0)

# rows of the sorted boxes tested against the rest per NMS block: bounds the
# over-threshold block at 64 x N instead of a dense N x N matrix
NMS_BLOCK = 64


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in center form; extents must be positive."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"degenerate box extents w={self.w}, h={self.h}")

    @property
    def x1(self) -> float:
        return self.cx - self.w / 2.0

    @property
    def y1(self) -> float:
        return self.cy - self.h / 2.0

    @property
    def x2(self) -> float:
        return self.cx + self.w / 2.0

    @property
    def y2(self) -> float:
        return self.cy + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "Box":
        return cls((x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1)

    @classmethod
    def from_coco(cls, xywh) -> "Box":
        x, y, w, h = (float(v) for v in xywh)
        return cls(x + w / 2.0, y + h / 2.0, w, h)

    def to_coco(self) -> list[float]:
        return [self.x1, self.y1, self.w, self.h]

    def clip(self, width: float, height: float) -> "Box":
        """Intersect with the image rectangle [0,width] x [0,height]."""
        clipped, inside = clip_boxes(box_array([self]), width, height)
        if not inside[0]:
            raise ValueError("box lies entirely outside the image")
        return Box(*clipped[0].tolist())


@dataclass(frozen=True)
class BoxDelta:
    """Dimensionless center offsets plus log-scale extent ratios."""

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self):
        for v in (self.tx, self.ty, self.tw, self.th):
            if not math.isfinite(v):
                raise ValueError("non-finite box delta")


@dataclass(frozen=True)
class AnchorConfig:
    """Anchor grid layout: one area scale per pyramid level, shared ratios.

    ratios are h/w; anchor extents are w = s/sqrt(ratio), h = s*sqrt(ratio)
    so every anchor's area is exactly s^2. The extended ratio set trades
    proposal cost for coverage of very elongated objects.
    """

    ratios: tuple[float, ...] = (0.5, 1.0, 2.0)
    scales: tuple[float, ...] = (32.0, 64.0, 128.0, 256.0, 512.0)
    levels: tuple[int, ...] = (2, 3, 4, 5, 6)
    extended_ratios: bool = False

    EXTENDED_RATIOS = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)

    def __post_init__(self):
        if len(self.scales) != len(self.levels):
            raise ValueError("need exactly one scale per level")
        if any(r <= 0 for r in self.ratios):
            raise ValueError("ratios must be positive")

    def effective_ratios(self) -> tuple[float, ...]:
        return self.EXTENDED_RATIOS if self.extended_ratios else self.ratios

    def scale_for(self, level: int) -> float:
        return self.scales[self.levels.index(level)]

    @staticmethod
    def stride_for(level: int) -> int:
        return 2 ** level


def box_array(boxes) -> np.ndarray:
    """(N, 4) center-form rows from a sequence of Box or an (N, 4) array."""
    if not isinstance(boxes, np.ndarray):
        boxes = [(b.cx, b.cy, b.w, b.h) for b in boxes]
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return np.zeros((0, 4))
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"box array must have shape (N, 4), got {arr.shape}")
    return arr


def corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x1, y1, x2, y2 columns of center-form rows."""
    cx, cy, w, h = boxes.T
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of every row of a against every row of b, computed with
    iou()'s expressions so each entry equals iou() exactly."""
    ax1, ay1, ax2, ay2 = (c[:, None] for c in corners(a))
    bx1, by1, bx2, by2 = corners(b)
    ix = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    inter = np.where((ix > 0) & (iy > 0), ix * iy, 0.0)
    return inter / ((a[:, 2] * a[:, 3])[:, None] + b[:, 2] * b[:, 3] - inter)


def encode_boxes(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, 4) offsets (tx, ty, tw, th) of each target row relative to its
    anchor row: centers are normalized by the anchor extents, extents
    become log ratios."""
    acx, acy, aw, ah = anchors.T
    cx, cy, w, h = targets.T
    return np.stack([(cx - acx) / aw, (cy - acy) / ah, np.log(w / aw), np.log(h / ah)], axis=1)


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode_boxes; log-extent components are capped at log(1000)."""
    acx, acy, aw, ah = anchors.T
    tx, ty, tw, th = deltas.T
    tw, th = (np.clip(t, -LOG_EXTENT_CAP, LOG_EXTENT_CAP) for t in (tw, th))
    return np.stack([tx * aw + acx, ty * ah + acy, aw * np.exp(tw), ah * np.exp(th)], axis=1)


def encode(anchor: Box, target: Box) -> BoxDelta:
    """encode_boxes for one anchor and one target."""
    return BoxDelta(*encode_boxes(box_array([anchor]), box_array([target]))[0].tolist())


def decode(anchor: Box, delta: BoxDelta) -> Box:
    """decode_boxes for one anchor and one delta."""
    d = np.array([[delta.tx, delta.ty, delta.tw, delta.th]])
    return Box(*decode_boxes(box_array([anchor]), d)[0].tolist())


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> tuple[np.ndarray, np.ndarray]:
    """Intersect every row with the image rectangle [0,width] x [0,height].

    Returns the clipped rows and a mask of the rows whose intersection has
    positive extent; the other rows are meaningless and must be dropped.
    """
    x1, y1, x2, y2 = corners(boxes)
    x1, x2 = np.clip(x1, 0.0, width), np.clip(x2, 0.0, width)
    y1, y2 = np.clip(y1, 0.0, height), np.clip(y2, 0.0, height)
    clipped = np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1], axis=1)
    return clipped, (x2 > x1) & (y2 > y1)


def generate_anchors(level_shapes: dict[int, tuple[int, int]], cfg: AnchorConfig) -> np.ndarray:
    """Tile anchors over feature grids as a read-only (N, 4) array.

    level_shapes maps pyramid level -> (H, W) of its feature map. Each cell
    centers len(ratios) anchors at ((col+0.5)*stride, (row+0.5)*stride);
    levels are emitted in ascending order, cells in row-major order. The
    grid is cached per (level shapes, config).
    """
    return _anchor_grid(tuple(sorted(level_shapes.items())), cfg)


@functools.lru_cache(maxsize=16)
def _anchor_grid(shapes: tuple, cfg: AnchorConfig) -> np.ndarray:
    roots = np.sqrt(np.array(cfg.effective_ratios()))
    parts = [np.zeros((0, 4))]
    for level, (h, w) in shapes:
        if level not in cfg.levels:
            raise ValueError(f"no anchor scale configured for level {level}")
        stride = cfg.stride_for(level)
        scale = cfg.scale_for(level)
        grid = np.empty((h, w, roots.size, 4))
        grid[..., 0] = ((np.arange(w) + 0.5) * stride)[None, :, None]
        grid[..., 1] = ((np.arange(h) + 0.5) * stride)[:, None, None]
        grid[..., 2] = scale / roots
        grid[..., 3] = scale * roots
        parts.append(grid.reshape(-1, 4))
    anchors = np.concatenate(parts)
    anchors.setflags(write=False)
    return anchors


def nms(
    boxes,
    scores,
    iou_threshold: float,
    score_threshold: float = 0.5,
) -> list[int]:
    """Greedy non-maximum suppression over a list of Box or (N, 4) rows.

    Drops boxes scoring below score_threshold, then repeatedly keeps the
    highest-scoring survivor and suppresses everything overlapping it above
    iou_threshold. Score ties resolve to the lower original index. Returns
    kept indices ordered by descending score.

    The overlap test runs in blocks of NMS_BLOCK sorted rows against every
    later row, skipping rows that are already suppressed.
    """
    boxes = box_array(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.shape[0] != scores.shape[0]:
        raise ValueError("boxes and scores must have equal length")

    alive = np.flatnonzero(scores >= score_threshold)
    # stable sort on negated scores: ties keep original index order
    order = alive[np.argsort(-scores[alive], kind="stable")]
    x1, y1, x2, y2 = (c[order] for c in corners(boxes))
    areas = (x2 - x1) * (y2 - y1)

    active = np.ones(order.size, dtype=bool)
    for lo in range(0, order.size, NMS_BLOCK):
        rows = np.flatnonzero(active[lo : lo + NMS_BLOCK]) + lo
        if rows.size == 0:
            continue
        ix = np.minimum(x2[rows, None], x2[lo:]) - np.maximum(x1[rows, None], x1[lo:])
        iy = np.minimum(y2[rows, None], y2[lo:]) - np.maximum(y1[rows, None], y1[lo:])
        inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
        over = inter / (areas[rows, None] + areas[lo:] - inter) > iou_threshold
        for i, row in zip(rows, over):
            if active[i]:
                active[i + 1 :] &= ~row[i + 1 - lo :]
    return order[active].tolist()
