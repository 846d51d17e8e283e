"""COCO-style detection evaluation: matching, P-R curves, AP and mAP.

Matching is greedy per (image, class): detections are taken in descending
score order (ties keep insertion order) and each grabs the unmatched
ground-truth box of highest IoU if that IoU reaches the threshold.
Crowd-flagged ground truth acts as an ignore region: a detection whose
only qualifying overlap is a crowd box is dropped from scoring. Each group
is matched once per report: its order and its IoUs are computed once, and
the greedy pass runs on them at every threshold.

AP is the 101-point interpolation of the precision envelope. mAP averages
AP over the classes that have at least one non-crowd ground-truth box; the
sweep aggregate averages the 10 thresholds 0.50, 0.55, ..., 0.95.
Detections are capped at 100 per (image, class) by score before matching.
Area-range breakdowns and mask overlap are not computed; only box mAP is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, iou

__all__ = [
    "COCO_SWEEP",
    "RECALL_POINTS",
    "Detection",
    "GTRecord",
    "MatchResult",
    "PRCurve",
    "EvalReport",
    "match",
    "pr_curve",
    "average_precision",
    "map_report",
    "format_table",
]

COCO_SWEEP = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))
RECALL_POINTS = np.linspace(0.0, 1.0, 101)

TP = 1
FP = 0
CROWD_IGNORED = -1


@dataclass(frozen=True)
class Detection:
    image_id: int
    class_id: int
    box: Box
    score: float

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0,1], got {self.score}")


@dataclass(frozen=True)
class GTRecord:
    image_id: int
    class_id: int
    box: Box
    iscrowd: bool = False


@dataclass
class MatchResult:
    """(T, D) flags, one row per threshold, and the (D,) scores, both in
    score-descending order."""

    flags: np.ndarray
    scores: np.ndarray
    n_gt: int


def match(dets: list[Detection], gts: list[GTRecord], thresholds) -> MatchResult:
    """Greedily match one (image, class) group of detections to ground truth
    at each of the given IoU thresholds.

    The group is sorted once, and each detection's IoU with every real box
    and its best crowd IoU are computed once; flags[t] is the greedy pass
    at thresholds[t] on those values.
    """
    keys = {(d.image_id, d.class_id) for d in dets} | {(g.image_id, g.class_id) for g in gts}
    if len(keys) > 1:
        raise ValueError(f"match expects a single (image, class) group, got {sorted(keys)}")
    scores = np.array([d.score for d in dets], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    real = [g.box for g in gts if not g.iscrowd]
    crowd = [g.box for g in gts if g.iscrowd]
    ious = [[iou(dets[di].box, g) for g in real] for di in order]
    crowd_best = [max([iou(dets[di].box, c) for c in crowd], default=-math.inf) for di in order]
    tops = [max(row, default=0.0) for row in ious]
    flags = []
    for thr in thresholds:
        taken = [False] * len(real)
        row_flags = []
        for row, top, crowd_ov in zip(ious, tops, crowd_best):
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
    flags = np.array(flags, dtype=np.int8).reshape(len(flags), len(dets))
    return MatchResult(flags=flags, scores=scores[order], n_gt=len(real))


@dataclass
class PRCurve:
    """Cumulative precision/recall over score-ranked detections."""

    precision: np.ndarray
    recall: np.ndarray
    tp: int
    fp: int
    n_gt: int


def pr_curve(flags: np.ndarray, n_gt: int) -> PRCurve:
    """Build the cumulative P-R curve from score-sorted TP/FP flags.

    Crowd-ignored entries (-1) are dropped first. With n_gt = 0 the recall
    is identically zero and AP is meaningless; callers exclude such classes.
    """
    if n_gt < 0:
        raise ValueError("n_gt must be non-negative")
    kept = np.asarray(flags)
    kept = kept[kept != CROWD_IGNORED]
    tp_cum = np.cumsum(kept == TP)
    fp_cum = np.cumsum(kept == FP)
    denom = tp_cum + fp_cum
    precision = np.where(denom > 0, tp_cum / np.maximum(denom, 1), 0.0)
    recall = tp_cum / n_gt if n_gt > 0 else np.zeros_like(precision)
    tp_total = int(tp_cum[-1]) if tp_cum.size else 0
    fp_total = int(fp_cum[-1]) if fp_cum.size else 0
    return PRCurve(precision=precision, recall=recall, tp=tp_total, fp=fp_total, n_gt=n_gt)


def _envelope(precision: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(precision[::-1])[::-1]


def average_precision(curve: PRCurve) -> float:
    """Area under the P-R curve after taking the precision envelope: the
    envelope sampled at recalls {0, 0.01, ..., 1.00} and averaged."""
    if curve.recall.size == 0:
        return 0.0
    env = _envelope(curve.precision)
    # precision at the first curve point whose recall reaches each sample
    idx = np.searchsorted(curve.recall, RECALL_POINTS, side="left")
    sampled = np.where(idx < env.size, env[np.minimum(idx, env.size - 1)], 0.0)
    return float(sampled.mean())


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


def map_report(
    dets: list[Detection],
    gts: list[GTRecord],
    thresholds=None,
    max_dets: int = 100,
) -> EvalReport:
    """Evaluate detections against ground truth at one or more IoU thresholds.

    thresholds defaults (None) to COCO_SWEEP. An empty sequence, a value
    that does not round to two places inside (0, 1), and max_dets < 1
    raise ValueError. Classes with zero non-crowd ground truth are excluded
    from every mAP mean. The sweep aggregate is filled only when all 10
    sweep thresholds were evaluated; 0.5/0.75 aggregates only when those were.
    """
    # the first occurrence of each rounded value, so each is matched and reported once
    thresholds = tuple(dict.fromkeys(round(float(t), 2) for t in (COCO_SWEEP if thresholds is None else thresholds)))
    if not thresholds or not all(0.0 < t < 1.0 for t in thresholds):
        raise ValueError(f"IoU thresholds must be a non-empty sequence in (0, 1), got {thresholds}")
    if max_dets < 1:
        raise ValueError(f"max_dets must be at least 1, got {max_dets}")
    class_gt_counts: dict[int, int] = {}
    for g in gts:
        if not g.iscrowd:
            class_gt_counts[g.class_id] = class_gt_counts.get(g.class_id, 0) + 1
    class_ids = tuple(sorted(c for c, n in class_gt_counts.items() if n > 0))

    by_group_d: dict[tuple[int, int], list[Detection]] = {}
    for d in dets:
        by_group_d.setdefault((d.image_id, d.class_id), []).append(d)
    # the max_dets best of each group; the stable sort keeps score ties in input order
    for grp in by_group_d.values():
        grp.sort(key=lambda d: -d.score)
        del grp[max_dets:]
    by_group_g: dict[tuple[int, int], list[GTRecord]] = {}
    for g in gts:
        by_group_g.setdefault((g.image_id, g.class_id), []).append(g)

    ap: dict[float, dict[int, float]] = {t: {} for t in thresholds}
    tp_all, fp_all = [0] * len(thresholds), [0] * len(thresholds)
    images = sorted({k[0] for k in by_group_d} | {k[0] for k in by_group_g})
    for cid in class_ids:
        groups = [(by_group_d.get((img, cid), []), by_group_g.get((img, cid), [])) for img in images]
        results = [match(d_grp, g_grp, thresholds) for d_grp, g_grp in groups if d_grp or g_grp]
        flags = np.concatenate([r.flags for r in results], axis=1)
        # one stable score order for every threshold; pr_curve drops the
        # crowd-ignored entries, which leaves the others in this order
        rank = np.argsort(-np.concatenate([r.scores for r in results]), kind="stable")
        for t, thr in enumerate(thresholds):
            curve = pr_curve(flags[t, rank], class_gt_counts[cid])
            ap[thr][cid] = average_precision(curve)
            tp_all[t] += curve.tp
            fp_all[t] += curve.fp
    n_gt_all = sum(class_gt_counts[c] for c in class_ids)
    counts = {thr: (tp, fp, n_gt_all - tp) for thr, tp, fp in zip(thresholds, tp_all, fp_all)}
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
