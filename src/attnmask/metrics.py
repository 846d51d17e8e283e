"""COCO-style detection evaluation: matching, AP and mAP.

The evaluator reads two column tables: `DetTable` (image and class ids,
corner boxes, scores) and `GTTable` (the same, with crowd flags in place
of scores). Each checks its columns' shapes and dtypes when built;
`coco_io` reads files into them, `DetTable.of` makes one of `infer`'s
`Detection` records, and `synth.to_ground_truth` builds a `GTTable`.

Matching is greedy per (image, class): detections are taken in descending
score order (ties keep input order) and each grabs the unmatched
ground-truth box of highest IoU if that IoU reaches the threshold.
Crowd-flagged ground truth acts as an ignore region: a detection whose
only qualifying overlap is a crowd box is dropped from scoring. `match` is
that rule alone, run at every threshold on one group's overlap matrices;
`map_report` groups both tables by one stable `np.lexsort` on (class,
image), scores first within a detection group, and makes one
`pairwise_iou` matrix per group, its columns split into real boxes and
crowd regions. The IoU reads the corners as they are, with areas
(x2 - x1)(y2 - y1), so it equals the brute-force oracle's bit for bit.

AP is the 101-point interpolation of the precision envelope at the recalls
k/100 (RECALL_POINTS), computed in one pass per class over every
threshold's row of score-ranked flags. mAP averages AP over the classes
that have at least one non-crowd ground-truth box; the sweep aggregate
averages the 10 thresholds 0.50, 0.55, ..., 0.95. Detections are capped at
MAX_DETS per (image, class) by score before matching. Area-range
breakdowns and mask overlap are not computed; only box mAP is reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# iou is not called here but stays bound: the benchmark's tracer
# (bench/layers.py) wraps boxes.iou in every module that imports it
from .boxes import Box, iou, pairwise_iou  # noqa: F401

__all__ = [
    "COCO_SWEEP",
    "MAX_DETS",
    "RECALL_POINTS",
    "Detection",
    "DetTable",
    "GTTable",
    "EvalReport",
    "match",
    "average_precision",
    "map_report",
    "format_table",
]

COCO_SWEEP = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
# each sample is k / 100 rounded once, as each curve recall tp / n_gt is,
# so a recall that equals k / 100 in exact arithmetic reaches sample k
RECALL_POINTS = np.arange(101) / 100
MAX_DETS = 100

TP = 1
FP = 0
CROWD_IGNORED = -1


@dataclass(frozen=True)
class Detection:
    """One detection as `infer` returns it; `DetTable.of` checks it."""

    image_id: int
    class_id: int
    box: Box
    score: float


def _spelled(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} array of shape {value.shape}"
    return type(value).__name__


def _check_columns(table, last: str, dtype) -> None:
    """Raise ValueError unless table.boxes is an (N, 4) float64 array and
    image_id, class_id (int64) and the column called last (dtype) are (N,)."""
    b = table.boxes
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.ndim == 2 and b.shape[1] == 4):
        raise ValueError(f"boxes must be an (N, 4) float64 array, got {_spelled(b)}")
    for name, kind in (("image_id", np.int64), ("class_id", np.int64), (last, dtype)):
        col = getattr(table, name)
        if not (isinstance(col, np.ndarray) and col.dtype == kind and col.shape == b.shape[:1]):
            raise ValueError(f"{name} must be a ({len(b)},) {np.dtype(kind)} array, got {_spelled(col)}")


@dataclass(frozen=True, eq=False)
class DetTable:
    """N detections as columns: image and class ids, (N, 4) corner rows
    (x1, y1, x2, y2) and scores in [0, 1]."""

    image_id: np.ndarray
    class_id: np.ndarray
    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        _check_columns(self, "score", np.float64)
        bad = ~((self.score >= 0.0) & (self.score <= 1.0))  # NaN included
        if bad.any():
            raise ValueError(f"score must be in [0,1], got {self.score[bad][0]}")

    def __len__(self) -> int:
        return len(self.boxes)

    @classmethod
    def of(cls, dets: list[Detection]) -> DetTable:
        """The table of a list of Detection records, in their order."""
        return cls(np.array([d.image_id for d in dets], dtype=np.int64),
                   np.array([d.class_id for d in dets], dtype=np.int64),
                   np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4),
                   np.array([d.score for d in dets], dtype=np.float64))


@dataclass(frozen=True, eq=False)
class GTTable:
    """N ground-truth boxes as columns: image and class ids, (N, 4) corner
    rows (x1, y1, x2, y2) and crowd flags."""

    image_id: np.ndarray
    class_id: np.ndarray
    boxes: np.ndarray
    iscrowd: np.ndarray

    def __post_init__(self):
        _check_columns(self, "iscrowd", np.bool_)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        """One record per row, its box a corner Box, for readers outside the
        evaluator: the benchmark's infer check reads `g.box.x1` and the rest."""
        columns = (self.image_id.tolist(), self.class_id.tolist(), self.boxes.tolist(), self.iscrowd.tolist())
        for image_id, class_id, box, iscrowd in zip(*columns):
            yield SimpleNamespace(image_id=image_id, class_id=class_id, box=Box(*box), iscrowd=iscrowd)


def match(ious: np.ndarray, crowd_ious: np.ndarray, thresholds) -> np.ndarray:
    """The (T, D) greedy flags of one (image, class) group at each threshold,
    from its (D, G) IoUs with the real boxes and (D, C) IoUs with the crowd
    regions, rows in descending score order: each row in turn takes the
    untaken real box of highest IoU (the first on ties) if that reaches the
    threshold, else is crowd-ignored if its best crowd IoU does, else FP."""
    if len(ious) != len(crowd_ious):
        raise ValueError(f"match needs one row per detection in both matrices, got {len(ious)} and {len(crowd_ious)}")
    rows = ious.tolist()
    tops = ious.max(axis=1, initial=0.0).tolist()
    crowd_best = crowd_ious.max(axis=1, initial=-math.inf).tolist()
    flags = []
    for thr in thresholds:
        taken = [False] * ious.shape[1]
        row_flags = []
        for row, top, crowd_ov in zip(rows, tops, crowd_best):
            best, best_gi = 0.0, -1
            # below thr at its largest real IoU, a row cannot take a box
            if top >= thr:
                for gi, ov in enumerate(row):
                    if ov > best and not taken[gi]:
                        best, best_gi = ov, gi
            if best >= thr and best_gi >= 0:
                taken[best_gi] = True
                row_flags.append(TP)
            elif crowd_ov >= thr:
                row_flags.append(CROWD_IGNORED)
            else:
                row_flags.append(FP)
        flags.append(row_flags)
    return np.array(flags, dtype=np.int8).reshape(len(flags), len(rows))


def average_precision(flags: np.ndarray, n_gt: int) -> np.ndarray:
    """The (T,) APs of a (T, D) flag matrix whose D columns are ranked by
    score, one row per threshold: each row's precision envelope sampled at
    RECALL_POINTS and averaged. A (T, 0) matrix scores zeros.

    Crowd-ignored entries stay in place as neither TP nor FP. That moves no
    sampled value: each repeats the (recall, precision) point before it, or
    sits at (0, 0) ahead of every scored entry.
    """
    if n_gt < 1:
        raise ValueError(f"n_gt must be at least 1, got {n_gt}")
    tp = np.cumsum(flags == TP, axis=1)
    scored = tp + np.cumsum(flags == FP, axis=1)
    # a trailing 0 is the precision at the recalls that no entry reaches
    precision = np.zeros((tp.shape[0], tp.shape[1] + 1))
    np.divide(tp, scored, out=precision[:, :-1], where=scored > 0)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # the envelope at the first entry whose recall reaches each sample
    return np.array([env[np.searchsorted(recall, RECALL_POINTS, side="left")].mean()
                     for env, recall in zip(envelope, tp / n_gt)])


@dataclass
class EvalReport:
    """Per-class/per-threshold APs plus the three headline aggregates."""

    thresholds: tuple[float, ...]
    class_ids: tuple[int, ...]
    ap: dict[float, dict[int, float]]
    map_by_thr: dict[float, float]
    counts: dict[float, tuple[int, int, int]]
    map50: float | None = None
    map75: float | None = None
    map_coco: float | None = None

    def to_json(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "class_ids": list(self.class_ids),
            "ap": {f"{t:.2f}": {str(c): v for c, v in per.items()} for t, per in self.ap.items()},
            "map_by_thr": {f"{t:.2f}": v for t, v in self.map_by_thr.items()},
            "counts": {f"{t:.2f}": {"tp": c[0], "fp": c[1], "fn": c[2]} for t, c in self.counts.items()},
            "map50": self.map50,
            "map75": self.map75,
            "map_coco": self.map_coco,
        }


def _runs(table, order: np.ndarray) -> dict[tuple[int, int], tuple[int, int]]:
    """(class, image) -> the (start, stop) of its run in order, an order of
    the table's rows by class and then image."""
    cls, img = table.class_id[order], table.image_id[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (cls[1:] != cls[:-1]) | (img[1:] != img[:-1])
    starts = np.flatnonzero(new)
    bounds = np.append(starts, len(order)).tolist()
    return dict(zip(zip(cls[starts].tolist(), img[starts].tolist()), zip(bounds, bounds[1:])))


def map_report(dets: DetTable, gts: GTTable, thresholds=None) -> EvalReport:
    """Evaluate detections against ground truth at one or more IoU thresholds.

    thresholds defaults (None) to COCO_SWEEP. An empty sequence or a value
    that does not round to two places inside (0, 1) raises ValueError.
    Classes with zero non-crowd ground truth are excluded from every mAP
    mean. The sweep aggregate is filled only when all 10 sweep thresholds
    were evaluated; 0.5/0.75 aggregates only when those were. A box with
    x2 <= x1 or y2 <= y1 raises ValueError.
    """
    # the first occurrence of each rounded value, so each is matched and reported once
    thresholds = tuple(dict.fromkeys(round(float(t), 2) for t in (COCO_SWEEP if thresholds is None else thresholds)))
    if not thresholds or not all(0.0 < t < 1.0 for t in thresholds):
        raise ValueError(f"IoU thresholds must be a non-empty sequence in (0, 1), got {thresholds}")
    rows = np.concatenate([dets.boxes, gts.boxes])
    bad = ~(rows[:, 2:] > rows[:, :2]).all(axis=1)
    if bad.any():
        raise ValueError(f"boxes need x2 > x1 and y2 > y1, got {rows[bad][0].tolist()}")
    # rows by (class, image), detections by descending score within each;
    # the stable sort keeps score ties, and each group's boxes, in input order
    det_order = np.lexsort((-dets.score, dets.image_id, dets.class_id))
    gt_order = np.lexsort((gts.image_id, gts.class_id))
    det_runs, gt_runs = _runs(dets, det_order), _runs(gts, gt_order)
    counted, n_gts = np.unique(gts.class_id[~gts.iscrowd], return_counts=True)
    class_gt_counts = dict(zip(counted.tolist(), n_gts.tolist()))
    class_ids = tuple(class_gt_counts)

    ap: dict[float, dict[int, float]] = {t: {} for t in thresholds}
    tp_all = np.zeros(len(thresholds), dtype=np.int64)
    fp_all = np.zeros_like(tp_all)
    scored = sorted(k for k in det_runs.keys() | gt_runs.keys() if k[0] in class_gt_counts)
    for cid, keys in itertools.groupby(scored, key=lambda k: k[0]):
        order, group_flags = [], []
        for key in keys:
            start, stop = det_runs.get(key, (0, 0))
            top = det_order[start:min(stop, start + MAX_DETS)]  # the group's MAX_DETS best
            start, stop = gt_runs.get(key, (0, 0))
            gt = gt_order[start:stop]
            ious, is_crowd = pairwise_iou(dets.boxes[top], gts.boxes[gt]), gts.iscrowd[gt]
            group_flags.append(match(ious[:, ~is_crowd], ious[:, is_crowd], thresholds))
            order.append(top)
        # one stable score order across the class's images, for every threshold
        rank = np.argsort(-dets.score[np.concatenate(order)], kind="stable")
        flags = np.concatenate(group_flags, axis=1)[:, rank]
        for thr, value in zip(thresholds, average_precision(flags, class_gt_counts[cid]).tolist()):
            ap[thr][cid] = value
        tp_all += (flags == TP).sum(axis=1)
        fp_all += (flags == FP).sum(axis=1)
    n_gt_all = sum(class_gt_counts.values())
    counts = {thr: (tp, fp, n_gt_all - tp) for thr, tp, fp in zip(thresholds, tp_all.tolist(), fp_all.tolist())}
    map_by_thr = {thr: float(np.mean([ap[thr][c] for c in class_ids])) if class_ids else 0.0 for thr in thresholds}

    sweep = all(t in map_by_thr for t in COCO_SWEEP)
    return EvalReport(
        thresholds=thresholds, class_ids=class_ids, ap=ap, map_by_thr=map_by_thr, counts=counts,
        map50=map_by_thr.get(0.5), map75=map_by_thr.get(0.75),
        map_coco=float(np.mean([map_by_thr[t] for t in COCO_SWEEP])) if sweep else None,
    )


def format_table(rows: list[tuple[str, EvalReport]]) -> str:
    """Render model-comparison rows with the three headline mAP columns."""
    header = ["Model", "mAP@0.5", "mAP@0.75", "mAP@[0.5:0.95]"]
    cells = [header]
    for name, rep in rows:
        fmt = lambda v: f"{v:.4f}" if v is not None else "n/a"
        cells.append([name, fmt(rep.map50), fmt(rep.map75), fmt(rep.map_coco)])
    widths = [max(len(r[i]) for r in cells) for i in range(4)]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
