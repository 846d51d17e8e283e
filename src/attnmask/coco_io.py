"""Reading the COCO-style JSON files the evaluator scores.

Ground truth is an object with `images`, `annotations` and `categories`
arrays; detections are one array of records. Annotations and detections
are read straight into the evaluator's columns (`metrics.GTTable`,
`metrics.DetTable`), each COCO top-left `[x, y, w, h]` as the corner row
`x, y, x + w, y + h`. One rule holds for every record: ids are ints
within int64, and an image or category id is listed in the ground
truth's map when that map is non-empty; bbox components and scores are
finite numbers; extents are positive, and corners and corner areas
neither overflow nor collapse in float; scores lie in [0, 1] and
`iscrowd` (default 0) is 0, 1, true or false. The column reader checks it
over whole columns (`inputs.column`). If a column fails, the record rule
(`_placed` and `inputs.field`) reads the records in order and raises at
the first bad one, naming the record, the field and the value. The few
image and category records are read by the record rule alone. Nothing
here writes COCO files; `save_json` writes the CLI's reports.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .inputs import INT64, InputError, checked, column, field, load_json, records
from .metrics import DetTable, GTTable

__all__ = ["GroundTruth", "load_gt", "load_detections", "parse_gt", "parse_detections", "save_json"]

_BBOX = "tuple[float, float, float, float]"


@dataclass
class GroundTruth:
    records: GTTable
    images: dict[int, tuple[int, int]]
    categories: dict[int, str]


# -- the record rule ---------------------------------------------------------------


def _id(rec: dict, key: str, where: str) -> int:
    """rec[key] read as an int that an int64 column holds."""
    value = field(rec, key, "int", where)
    if value not in INT64:
        raise InputError(f"{where}: {key} must be within int64, got {reprlib.repr(rec[key])}")
    return value


def _placed(rec: dict, where: str, images: dict, categories: dict) -> tuple[int, int, tuple[float, ...]]:
    """The image_id, category_id and bbox corners annotations and detections
    share; an id must be listed in its map when that map is non-empty."""
    img_id = _id(rec, "image_id", where)
    if images and img_id not in images:
        raise InputError(f"{where}: unknown image_id {img_id}")
    cat_id = _id(rec, "category_id", where)
    if categories and cat_id not in categories:
        raise InputError(f"{where}: unknown category_id {cat_id}")
    x, y, w, h = field(rec, "bbox", _BBOX, where)
    if w <= 0 or h <= 0:
        raise InputError(f"{where}: bbox extents must be positive, got w={w}, h={h}")
    x2, y2 = x + w, y + h
    # a far corner, or the union of two corner areas in an IoU, must stay finite
    if not (math.isfinite(x2) and math.isfinite(y2) and math.isfinite(2.0 * ((x2 - x) * (y2 - y)))):
        raise InputError(f"{where}: bbox corner or area overflows, got {[x, y, w, h]}")
    # an extent lost in x + w would leave an empty box and a 0/0 IoU
    if not (x2 > x and y2 > y):
        raise InputError(f"{where}: bbox corners collapse in float, got {[x, y, w, h]}")
    return img_id, cat_id, (x, y, x2, y2)


def _annotation(ann: dict, where: str, images: dict, categories: dict, seen: set):
    """(image_id, category_id, corners, iscrowd) of one annotation; seen
    holds the annotation ids read before it."""
    aid = _id(ann, "id", where)
    where = f"{where} (id={aid})"
    if aid in seen:
        raise InputError(f"{where}: duplicate annotation id")
    seen.add(aid)
    img_id, cat_id, box = _placed(ann, where, images, categories)
    crowd = field(ann, "iscrowd", "int | bool", where, 0)
    if crowd not in (0, 1):
        raise InputError(f"{where}: iscrowd must be 0, 1, true or false, got {crowd!r}")
    return img_id, cat_id, box, bool(crowd)


def _detection(rec: dict, where: str, images: dict, categories: dict):
    """(image_id, category_id, corners, score) of one detection."""
    img_id, cat_id, box = _placed(rec, where, images, categories)
    score = field(rec, "score", "float", where)
    if not 0.0 <= score <= 1.0:
        raise InputError(f"{where}: score must be in [0,1], got {score!r}")
    return img_id, cat_id, box, score


def _reject(items: list, name: str, rule, *args):
    """After the column checks failed, raise the error of rule(record,
    location, *args) at the first record of the array called name that it
    rejects."""
    for where, rec in records(items, name):
        rule(rec, where, *args)
    raise AssertionError(f"{name}: the column checks rejected a record that the record rule accepts")


# -- the column reader -------------------------------------------------------------


def _values(items: list, keys: tuple[str, ...]) -> list[list] | None:
    """Each key's values over the records, or None unless every record is
    an object that holds every key."""
    if not set(map(type, items)) <= {dict}:
        return None
    try:
        return [list(map(itemgetter(key), items)) for key in keys]
    except KeyError:
        return None


def _placed_columns(image_ids: list, category_ids: list, bboxes: list, images: dict, categories: dict):
    """The int64 image and class id columns and the (N, 4) corner rows of
    _placed over whole columns, or None if any record breaks its rule."""
    img, cat = column(image_ids, "int"), column(category_ids, "int")
    if img is None or cat is None:
        return None
    if images and not set(image_ids) <= images.keys() or categories and not set(category_ids) <= categories.keys():
        return None
    if not (set(map(type, bboxes)) <= {list} and set(map(len, bboxes)) <= {4}):
        return None
    xywh = column(list(chain.from_iterable(bboxes)), "float")
    if xywh is None:
        return None
    x, y, w, h = xywh.reshape(-1, 4).T
    with np.errstate(over="ignore", invalid="ignore"):
        x2, y2 = x + w, y + h
        area = 2.0 * ((x2 - x) * (y2 - y))
    # x2 > x implies w > 0: a rounded sum passes x only when w is positive
    ok = np.isfinite(x2) & np.isfinite(y2) & np.isfinite(area) & (x2 > x) & (y2 > y)
    return (img, cat, np.stack([x, y, x2, y2], axis=1)) if ok.all() else None


def _annotation_columns(anns: list, images: dict, categories: dict) -> GTTable | None:
    cols = _values(anns, ("id", "image_id", "category_id", "bbox"))
    if cols is None:
        return None
    ids = column(cols[0], "int")
    if ids is None or len(np.unique(ids)) != len(ids):
        return None
    crowd = [ann.get("iscrowd", 0) for ann in anns]
    if not (set(map(type, crowd)) <= {int, bool, float} and set(crowd) <= {0, 1}):
        return None
    placed = _placed_columns(*cols[1:], images, categories)
    return None if placed is None else GTTable(*placed, np.array(crowd, dtype=bool))


def _detection_columns(dets: list, images: dict, categories: dict) -> DetTable | None:
    cols = _values(dets, ("image_id", "category_id", "bbox", "score"))
    if cols is None:
        return None
    placed, score = _placed_columns(*cols[:3], images, categories), column(cols[3], "float")
    if placed is None or score is None or not ((score >= 0.0) & (score <= 1.0)).all():
        return None
    return DetTable(*placed, score)


# -- documents ---------------------------------------------------------------------


def parse_gt(doc) -> GroundTruth:
    """Validate a parsed ground-truth document and read its columns."""
    checked("object", doc, "ground truth")
    images: dict[int, tuple[int, int]] = {}
    for where, img in records(doc.get("images", []), "images"):
        iid = _id(img, "id", where)
        if iid in images:
            raise InputError(f"{where}: duplicate image id {iid}")
        images[iid] = (field(img, "width", "int", where), field(img, "height", "int", where))
        if min(images[iid]) < 1:
            raise InputError(f"{where}: width and height must be positive, got {images[iid]}")
    categories: dict[int, str] = {}
    for where, cat in records(doc.get("categories", []), "categories"):
        cid = _id(cat, "id", where)
        if cid in categories:
            raise InputError(f"{where}: duplicate category id {cid}")
        categories[cid] = field(cat, "name", "str", where)
    anns = checked("array", doc.get("annotations", []), "annotations")
    table = _annotation_columns(anns, images, categories)
    if table is None:
        _reject(anns, "annotations", _annotation, images, categories, set())
    return GroundTruth(records=table, images=images, categories=categories)


def parse_detections(doc, gt: GroundTruth | None = None) -> DetTable:
    """Validate a parsed detection array and read its columns. Image and
    category ids are checked against gt's maps as annotations are, and not
    at all without gt."""
    images, categories = (gt.images, gt.categories) if gt is not None else ({}, {})
    dets = checked("array", doc, "detections")
    table = _detection_columns(dets, images, categories)
    if table is None:
        _reject(dets, "detections", _detection, images, categories)
    return table


def load_gt(path: str) -> GroundTruth:
    return load_json(path, parse_gt)


def load_detections(path: str, gt: GroundTruth | None = None) -> DetTable:
    return load_json(path, parse_detections, gt)


def save_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
