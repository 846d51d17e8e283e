"""Box algebra: IoU, offset encoding, anchor grids and non-maximum suppression.

Coordinates are continuous pixels with the origin at the image's top-left
corner, and areas carry no +1 convention.

Boxes travel as (N, 4) float64 arrays of corner rows (x1, y1, x2, y2),
from the anchor grid through proposals, ROI pooling and pasted masks to
the scenes and the evaluator. Only the offset parametrization reads
centers and extents: `encode` and `decode` take them from the rows through
one helper. `Box` is the corner row as one record, made only for `infer`'s
detections and for the rows a `metrics.GTTable` yields.

Every IoU goes through one intersection rule over corner columns with
areas (x2 - x1)(y2 - y1), as the evaluator's oracle computes them:
`pairwise_iou` on two row arrays, `nms` on the rows it keeps and the
scalar `iou` on two `Box` records.

`nms` walks the sorted rows in blocks of NMS_BLOCK and tests each block
only against the rows already kept, so its overlap blocks are bounded by
NMS_BLOCK x kept, and it stops once it has kept the rows its caller asks for.
Given per-row labels it suppresses only within a label, as for detections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Box",
    "AnchorConfig",
    "box_array",
    "iou",
    "pairwise_iou",
    "encode",
    "decode",
    "clip_boxes",
    "generate_anchors",
    "nms",
    "stride_of",
    "LOG_EXTENT_CAP",
]

# |tw| and |th| are capped here when decoding so a wild regression output
# cannot produce a box with overflowing area.
LOG_EXTENT_CAP = math.log(1000.0)

# sorted rows per NMS block; a block is tested against the rows kept before
# it and then against itself, so an over-threshold block is at most
# 64 x kept, never a dense N x N matrix
NMS_BLOCK = 64


class Box(NamedTuple):
    """Axis-aligned box by its corners, with no check of its own: coco_io
    and map_report reject boxes without x2 > x1 and y2 > y1."""

    x1: float
    y1: float
    x2: float
    y2: float


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


def stride_of(level: int) -> int:
    """Stride of pyramid level i relative to the input image (2^i)."""
    return 2 ** level


def box_array(boxes) -> np.ndarray:
    """(N, 4) float64 rows of an array or a sequence of 4-sequences."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        return np.zeros((0, 4))
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"box array must have shape (N, 4), got {arr.shape}")
    return arr


def _iou(a, b, area_a, area_b):
    """IoU of corner columns a = (x1, y1, x2, y2) against b, broadcast
    against each other, given each side's areas."""
    ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0])
    iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    return inter / (area_a + area_b - inter)


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area of two corner boxes, in [0, 1]."""
    return float(_iou(a, b, (a.x2 - a.x1) * (a.y2 - a.y1), (b.x2 - b.x1) * (b.y2 - b.y1)))


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, M) IoU of every corner row of a against every row of b."""
    area_a, area_b = ((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1]) for r in (a, b))
    return _iou(a.T[:, :, None], b.T, area_a[:, None], area_b)


def _centers(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """cx, cy, w, h columns of corner rows: the offset parametrization's terms."""
    x1, y1, x2, y2 = rows.T
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1


def encode(anchors: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, 4) offsets (tx, ty, tw, th) of each target row relative to its
    anchor row: centers are normalized by the anchor extents, extents
    become log ratios."""
    acx, acy, aw, ah = _centers(anchors)
    cx, cy, w, h = _centers(targets)
    return np.stack([(cx - acx) / aw, (cy - acy) / ah, np.log(w / aw), np.log(h / ah)], axis=1)


def decode(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Inverse of encode, into corner rows; log-extent components are
    capped at log(1000)."""
    acx, acy, aw, ah = _centers(anchors)
    tx, ty, tw, th = deltas.T
    tw, th = (np.clip(t, -LOG_EXTENT_CAP, LOG_EXTENT_CAP) for t in (tw, th))
    cx, cy, w, h = tx * aw + acx, ty * ah + acy, aw * np.exp(tw), ah * np.exp(th)
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0], axis=1)


def clip_boxes(boxes: np.ndarray, width: float, height: float) -> tuple[np.ndarray, np.ndarray]:
    """Intersect every row with the image rectangle [0,width] x [0,height].

    Returns the clipped rows and a mask of the rows whose intersection has
    positive extent; the other rows are meaningless and must be dropped.
    """
    clipped = np.clip(boxes, 0.0, [width, height, width, height])
    return clipped, (clipped[:, 2] > clipped[:, 0]) & (clipped[:, 3] > clipped[:, 1])


def generate_anchors(shapes: dict[int, tuple[int, int]], cfg: AnchorConfig) -> np.ndarray:
    """Tile anchors over feature grids as read-only (N, 4) corner rows.

    shapes maps pyramid level -> (H, W) of its feature map. Each cell
    centers len(ratios) anchors at ((col+0.5)*stride, (row+0.5)*stride);
    levels are emitted in ascending order, cells in row-major order. The
    grid is cached per (level shapes, config).
    """
    return _anchor_grid(tuple(sorted(shapes.items())), cfg)


@functools.lru_cache(maxsize=16)
def _anchor_grid(shapes: tuple, cfg: AnchorConfig) -> np.ndarray:
    roots = np.sqrt(np.array(cfg.effective_ratios()))
    parts = [np.zeros((0, 4))]
    for level, (h, w) in shapes:
        if level not in cfg.levels:
            raise ValueError(f"no anchor scale configured for level {level}")
        stride = stride_of(level)
        scale = cfg.scale_for(level)
        cx = ((np.arange(w) + 0.5) * stride)[None, :, None]
        cy = ((np.arange(h) + 0.5) * stride)[:, None, None]
        half_w, half_h = scale / roots / 2.0, scale * roots / 2.0
        grid = np.empty((h, w, roots.size, 4))
        grid[..., 0], grid[..., 2] = cx - half_w, cx + half_w
        grid[..., 1], grid[..., 3] = cy - half_h, cy + half_h
        parts.append(grid.reshape(-1, 4))
    anchors = np.concatenate(parts)
    anchors.setflags(write=False)
    return anchors


def nms(
    boxes,
    scores,
    iou_threshold: float,
    max_keep: int | None = None,
    labels=None,
) -> list[int]:
    """Greedy non-maximum suppression over (N, 4) corner rows.

    Repeatedly keeps the highest-scoring remaining box and suppresses the
    boxes overlapping it above iou_threshold; with per-row labels only
    boxes of its label. Score ties resolve to the lower original index.
    Returns kept indices ordered by descending score, at most max_keep of
    them: the first max_keep of the uncapped result.

    A row is kept exactly when no earlier kept row overlaps it. So each
    block of NMS_BLOCK sorted rows is first tested against the rows kept
    before it, and its survivors are then settled in order against each
    other. The work is NMS_BLOCK x kept per block, and it stops at the first
    block that brings the kept count to max_keep.
    """
    boxes = box_array(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    if boxes.shape[0] != scores.shape[0] or labels is not None and len(labels) != scores.shape[0]:
        raise ValueError("boxes, scores and labels must have equal length")
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    if max_keep is not None and max_keep < 1:
        raise ValueError(f"max_keep must be at least 1, got {max_keep}")

    # stable sort on negated scores: ties keep original index order
    order = np.argsort(-scores, kind="stable")
    cols = boxes.T[:, order]
    areas = (cols[2] - cols[0]) * (cols[3] - cols[1])
    labels = None if labels is None else np.asarray(labels)[order]

    def over(a, b):
        """(len(a), len(b)) mask: earlier sorted row a[i] overlaps later b[j]."""
        hit = _iou(cols[:, a, None], cols[:, b], areas[a, None], areas[b]) > iou_threshold
        return hit if labels is None else hit & (labels[a, None] == labels[b])

    cap = order.size if max_keep is None else max_keep
    kept = np.zeros(0, dtype=np.intp)
    for lo in range(0, order.size, NMS_BLOCK):
        if kept.size >= cap:
            break
        rows = np.arange(lo, min(lo + NMS_BLOCK, order.size))
        if kept.size:
            rows = rows[~over(kept, rows).any(axis=0)]
        inside = over(rows, rows)
        active = np.ones(rows.size, dtype=bool)
        for i in range(rows.size):
            if active[i]:
                active[i + 1 :] &= ~inside[i, i + 1 :]
        kept = np.concatenate([kept, rows[active]])
    return order[kept[:cap]].tolist()
