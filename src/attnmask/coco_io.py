"""Reading the COCO-style JSON files the evaluator scores.

Ground truth is an object with `images`, `annotations` and `categories`
arrays; detections are one array of records. Boxes are COCO top-left
`[x, y, w, h]` pixels, converted to center form. Every field goes through
`inputs.field`: ids and sizes are ints (sizes positive), bbox components
and scores finite numbers, names strings, and `iscrowd` (default 0) is 0,
1, true or false. Annotations and detections share one id and bbox reader.
Nothing here writes COCO files; `save_json` writes the CLI's reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .boxes import Box
from .inputs import InputError, checked, field, load_json, records
from .metrics import Detection, GTRecord

__all__ = ["GroundTruth", "load_gt", "load_detections", "parse_gt", "parse_detections", "save_json"]

_BBOX = "tuple[float, float, float, float]"


@dataclass
class GroundTruth:
    records: list[GTRecord]
    images: dict[int, tuple[int, int]]
    categories: dict[int, str]


def _placed(rec: dict, where: str, images: dict, categories: dict) -> tuple[int, int, Box]:
    """The image_id, category_id and bbox fields annotations and detections
    share; an id must be listed in its map when that map is non-empty."""
    img_id = field(rec, "image_id", "int", where)
    if images and img_id not in images:
        raise InputError(f"{where}: unknown image_id {img_id}")
    cat_id = field(rec, "category_id", "int", where)
    if categories and cat_id not in categories:
        raise InputError(f"{where}: unknown category_id {cat_id}")
    x, y, w, h = field(rec, "bbox", _BBOX, where)
    if w <= 0 or h <= 0:
        raise InputError(f"{where}: bbox extents must be positive, got w={w}, h={h}")
    # a far corner, or the union of two such areas in an IoU, must stay finite
    if not (math.isfinite(x + w) and math.isfinite(y + h) and math.isfinite(2.0 * (w * h))):
        raise InputError(f"{where}: bbox corner or area overflows, got {[x, y, w, h]}")
    return img_id, cat_id, Box.from_coco((x, y, w, h))


def parse_gt(doc) -> GroundTruth:
    """Validate a parsed ground-truth document and convert to GTRecords."""
    checked("object", doc, "ground truth")
    images: dict[int, tuple[int, int]] = {}
    for where, img in records(doc.get("images", []), "images"):
        iid = field(img, "id", "int", where)
        if iid in images:
            raise InputError(f"{where}: duplicate image id {iid}")
        images[iid] = (field(img, "width", "int", where), field(img, "height", "int", where))
        if min(images[iid]) < 1:
            raise InputError(f"{where}: width and height must be positive, got {images[iid]}")
    categories: dict[int, str] = {}
    for where, cat in records(doc.get("categories", []), "categories"):
        cid = field(cat, "id", "int", where)
        if cid in categories:
            raise InputError(f"{where}: duplicate category id {cid}")
        categories[cid] = field(cat, "name", "str", where)
    gts: list[GTRecord] = []
    seen_ann: set[int] = set()
    for where, ann in records(doc.get("annotations", []), "annotations"):
        aid = field(ann, "id", "int", where)
        where = f"{where} (id={aid})"
        if aid in seen_ann:
            raise InputError(f"{where}: duplicate annotation id")
        seen_ann.add(aid)
        img_id, cat_id, box = _placed(ann, where, images, categories)
        crowd = field(ann, "iscrowd", "int | bool", where, 0)
        if crowd not in (0, 1):
            raise InputError(f"{where}: iscrowd must be 0, 1, true or false, got {crowd!r}")
        gts.append(GTRecord(image_id=img_id, class_id=cat_id, box=box, iscrowd=bool(crowd)))
    return GroundTruth(records=gts, images=images, categories=categories)


def parse_detections(doc, gt: GroundTruth | None = None) -> list[Detection]:
    """Validate a parsed detection array. Image and category ids are checked
    against gt's maps as annotations are, and not at all without gt."""
    images, categories = (gt.images, gt.categories) if gt is not None else ({}, {})
    dets: list[Detection] = []
    for where, rec in records(doc, "detections"):
        img_id, cat_id, box = _placed(rec, where, images, categories)
        score = field(rec, "score", "float", where)
        if not 0.0 <= score <= 1.0:
            raise InputError(f"{where}: score must be in [0,1], got {score!r}")
        dets.append(Detection(image_id=img_id, class_id=cat_id, box=box, score=score))
    return dets


def load_gt(path: str) -> GroundTruth:
    return load_json(path, parse_gt)


def load_detections(path: str, gt: GroundTruth | None = None) -> list[Detection]:
    return load_json(path, parse_detections, gt)


def save_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
