"""COCO-style detection evaluation: matching, AP and mAP.

The evaluator reads two column tables: `DetTable` (image and class ids,
corner boxes, scores) and `GTTable` (the same, with crowd flags in place
of scores). Each checks its columns' shapes and dtypes when built, with
`check_columns`, the one column rule that `synth.Sample` shares; `coco_io`
reads files into them, `DetTable.of` makes one of `infer`'s `Detection`
records, and `synth.to_ground_truth` builds a `GTTable`.

Matching is greedy per (image, class): detections are taken in descending
score order (ties keep input order) and each grabs the unmatched
ground-truth box of highest IoU if that IoU reaches the threshold.
Crowd-flagged ground truth acts as an ignore region: a detection whose
only qualifying overlap is a crowd box is dropped from scoring. `match` is
that rule alone, run at every threshold on a padded stack of groups at
once, one loop over row rank for all of them. `map_report` groups both
tables by one stable `np.lexsort` on (class, image), scores first within a
detection group, pads consecutive groups into batches of at most
MATCH_CELLS cells, and makes one `pairwise_iou` stack per batch; `match`
reads it twice, its crowd columns zeroed as the real stack and its real
columns zeroed as the crowd stack. The IoU reads the corners as they are,
with areas (x2 - x1)(y2 - y1), so it equals the brute-force oracle's bit
for bit.

AP is the 101-point interpolation of the precision envelope at the recalls
k/100 (RECALL_POINTS), computed in one pass per class over every
threshold's row of score-ranked flags. mAP averages AP over the classes
that have at least one non-crowd ground-truth box; the sweep aggregate
averages the 10 thresholds 0.50, 0.55, ..., 0.95. Detections are capped at
MAX_DETS per (image, class) by score before matching. Area-range
breakdowns and mask overlap are not computed; only box mAP is reported.
"""

from __future__ import annotations

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
    "check_columns",
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
# the most padded cells, thresholds x groups x rows x columns, that one
# match call reads: it bounds the IoU stacks, the free masks and the flags
# of a batch, which would otherwise pad every group of a file to its
# largest, as one image of thousands of boxes among thousands of small
# groups would
MATCH_CELLS = 1 << 18

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


def check_columns(table, **dtypes) -> None:
    """The one column rule of box tables and scenes: raise ValueError unless
    table.boxes is an (N, 4) float64 array and each named column is an (N,)
    array of its dtype, checked in the order given."""
    b = table.boxes
    if not (isinstance(b, np.ndarray) and b.dtype == np.float64 and b.ndim == 2 and b.shape[1] == 4):
        raise ValueError(f"boxes must be an (N, 4) float64 array, got {_spelled(b)}")
    for name, kind in dtypes.items():
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
        check_columns(self, image_id=np.int64, class_id=np.int64, score=np.float64)
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
        check_columns(self, image_id=np.int64, class_id=np.int64, iscrowd=np.bool_)

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        """One record per row, its box a corner Box, for readers outside the
        evaluator: the benchmark's infer check reads `g.box.x1` and the rest."""
        columns = (self.image_id.tolist(), self.class_id.tolist(), self.boxes.tolist(), self.iscrowd.tolist())
        for image_id, class_id, box, iscrowd in zip(*columns):
            yield SimpleNamespace(image_id=image_id, class_id=class_id, box=Box(*box), iscrowd=iscrowd)


def match(ious: np.ndarray, crowd_ious: np.ndarray, thresholds) -> np.ndarray:
    """The (T, B, D) greedy flags of B (image, class) groups at each
    threshold in (0, 1), from their padded (B, D, G) IoUs with the real
    boxes and (B, D, C) IoUs with the crowd regions, each group's rows in
    descending score order: each row in turn takes the untaken real box of
    highest IoU (the first on ties) if that reaches the threshold, else is
    crowd-ignored if its best crowd IoU does, else FP.

    One loop over row rank serves every (threshold, group) pair: row r's
    IoUs times a "still free" mask, whose argmax is the first free box of
    the highest IoU, is a TP where it reaches the threshold, and that box
    is then taken. Padding needs no mask: a padded column must read 0.0,
    which never beats another box or reaches a threshold, and a group's
    padded rows must follow its real ones, whose flags they cannot change;
    the caller drops their flags.
    """
    if ious.ndim != 3 or crowd_ious.ndim != 3 or ious.shape[:2] != crowd_ious.shape[:2]:
        raise ValueError(f"match needs (B, D, G) and (B, D, C) stacks with the same groups and rows, "
                         f"got shapes {ious.shape} and {crowd_ious.shape}")
    thr = np.asarray(thresholds, dtype=np.float64)
    n_b, n_d, n_g = ious.shape
    n_tb = len(thr) * n_b
    tp = np.zeros((n_d, n_tb), dtype=bool)
    if n_g:
        rows = np.ascontiguousarray(ious.transpose(1, 0, 2))  # (D, B, G): one rank of every group
        free = np.ones((len(thr), n_b, n_g))
        free_flat, avail = free.reshape(-1), np.empty_like(free)
        avail_flat = avail.reshape(-1)
        need, base = np.repeat(thr, n_b), np.arange(n_tb) * n_g
        for r in range(n_d):
            np.multiply(free, rows[r], out=avail)
            pick = base + avail.reshape(n_tb, n_g).argmax(axis=1)
            tp[r] = hit = avail_flat[pick] >= need
            free_flat[pick[hit]] = 0.0
    tp = tp.reshape(n_d, len(thr), n_b).transpose(1, 2, 0)
    crowd = crowd_ious.max(axis=2, initial=0.0) >= thr[:, None, None]
    return np.where(tp, TP, np.where(crowd, CROWD_IGNORED, FP)).astype(np.int8)


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


def _batches(n_det: np.ndarray, n_gt: np.ndarray, n_thr: int) -> list[tuple[int, int]]:
    """The (lo, hi) slices of consecutive groups that match in one call,
    given each group's detection and ground-truth counts: a batch takes the
    next group while its padded n_thr x groups x rows x columns stay within
    MATCH_CELLS, so a group that alone exceeds it is a batch of its own."""
    cuts, lo, d_max, g_max = [0], 0, 0, 1
    for b, (d, g) in enumerate(zip(n_det.tolist(), n_gt.tolist())):
        d_max, g_max = max(d_max, d), max(g_max, g)
        if b > lo and n_thr * (b + 1 - lo) * d_max * g_max > MATCH_CELLS:
            cuts.append(b)
            lo, d_max, g_max = b, d, max(g, 1)
    return list(zip(cuts, cuts[1:] + [len(n_det)])) if len(n_det) else []


def _padded(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """(B, max count) positions start + k of each group's first count
    slots, and -1 after them."""
    k = np.arange(count.max())
    return np.where(k < count[:, None], start[:, None] + k, -1)


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
    bad = ~((rows[:, 2] > rows[:, 0]) & (rows[:, 3] > rows[:, 1]))
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

    # the scored groups in key order, each a run of det_order capped at its
    # MAX_DETS best and a run of gt_order
    scored = sorted(k for k in det_runs.keys() | gt_runs.keys() if k[0] in class_gt_counts)
    det_start, det_stop = np.array([det_runs.get(k, (0, 0)) for k in scored], dtype=np.intp).reshape(-1, 2).T
    gt_start, gt_stop = np.array([gt_runs.get(k, (0, 0)) for k in scored], dtype=np.intp).reshape(-1, 2).T
    n_det, n_gt = np.minimum(det_stop - det_start, MAX_DETS), gt_stop - gt_start
    # position -1 is padding: a unit-box row, whose flags are dropped, or an
    # empty real box at the origin, which overlaps every detection at 0.0
    det_rows = np.concatenate([dets.boxes[det_order], [[0.0, 0.0, 1.0, 1.0]]])
    gt_rows = np.concatenate([gts.boxes[gt_order], np.zeros((1, 4))])
    gt_crowd = np.append(gts.iscrowd[gt_order], False)

    # every group's flags at its unpadded rows, in key order and then score order
    flags, pos = [np.zeros((len(thresholds), 0), dtype=np.int8)], [np.zeros(0, dtype=np.intp)]
    for lo, hi in _batches(n_det, n_gt, len(thresholds)):
        det_pos, gt_pos = _padded(det_start[lo:hi], n_det[lo:hi]), _padded(gt_start[lo:hi], n_gt[lo:hi])
        ious, crowd = pairwise_iou(det_rows[det_pos], gt_rows[gt_pos]), gt_crowd[gt_pos][:, None]
        valid = det_pos >= 0
        # each kind of column reads 0.0 in the other kind's stack
        flags.append(match(np.where(crowd, 0.0, ious), np.where(crowd, ious, 0.0), thresholds)[:, valid])
        pos.append(det_pos[valid])
    flags, pos = np.concatenate(flags, axis=1), np.concatenate(pos)

    # each class's rows are one run, as its groups are consecutive keys
    cuts = np.searchsorted(dets.class_id[det_order][pos], counted).tolist() + [len(pos)]
    neg_score = -dets.score[det_order][pos]
    ap: dict[float, dict[int, float]] = {t: {} for t in thresholds}
    for cid, lo, hi in zip(class_ids, cuts, cuts[1:]):
        # one stable score order across the class's images, for every threshold
        rank = np.argsort(neg_score[lo:hi], kind="stable")
        for thr, value in zip(thresholds, average_precision(flags[:, lo:hi][:, rank], class_gt_counts[cid]).tolist()):
            ap[thr][cid] = value
    tp_all, fp_all = (flags == TP).sum(axis=1), (flags == FP).sum(axis=1)
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
