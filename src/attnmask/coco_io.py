"""Reading and writing the COCO-style JSON formats used by the evaluator.

Ground truth is an object with `images`, `annotations`, and `categories`
arrays; detections are a flat array of records. Boxes use the COCO
top-left `[x, y, w, h]` pixel convention and are converted to center
form internally. Every section must be an array of objects, ids and
image sizes must be integral numbers (not booleans), and bbox components
and scores must be finite numbers. Validation errors always name the
offending record (array index and id) and field, and the loaders prefix
the file path, so CLI diagnostics can point at them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .boxes import Box
from .metrics import Detection, GTRecord

__all__ = [
    "CocoFormatError",
    "GroundTruth",
    "load_gt",
    "load_detections",
    "parse_gt",
    "parse_detections",
    "gt_to_dict",
    "detections_to_list",
    "save_json",
]


class CocoFormatError(ValueError):
    """A structural or semantic problem in a COCO JSON document."""


@dataclass
class GroundTruth:
    records: list[GTRecord]
    images: dict[int, tuple[int, int]] = field(default_factory=dict)
    categories: dict[int, str] = field(default_factory=dict)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise CocoFormatError(f"{where}: missing required field {key!r}")
    return obj[key]


def _records(items, name: str):
    """(location, record) pairs of a JSON array whose entries are objects."""
    if not isinstance(items, list):
        raise CocoFormatError(f"{name} must be a JSON array, got {type(items).__name__}")
    for i, rec in enumerate(items):
        where = f"{name}[{i}]"
        if not isinstance(rec, dict):
            raise CocoFormatError(f"{where}: must be an object, got {rec!r}")
        yield where, rec


def _int_field(obj: dict, key: str, where: str) -> int:
    value = _require(obj, key, where)
    if type(value) is int:
        return value
    # int() would read true as 1 and 3.7 as 3
    if type(value) is float and value.is_integer():
        return int(value)
    raise CocoFormatError(f"{where}: {key} must be an integer, got {value!r}")


_NUMBER_TYPES = frozenset((int, float))


def _box_from_coco(bbox, where: str) -> Box:
    if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
        raise CocoFormatError(f"{where}: bbox must be a 4-element [x, y, w, h] array, got {bbox!r}")
    try:
        x, y, w, h = map(float, bbox)
        finite = math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)
        # float() alone would read true as 1.0 and "2" as 2.0
        finite = finite and _NUMBER_TYPES.issuperset(map(type, bbox))
    except (TypeError, ValueError, OverflowError):
        finite = False
    if not finite:
        raise CocoFormatError(f"{where}: bbox must hold four finite numbers, got {bbox!r}")
    if w <= 0 or h <= 0:
        raise CocoFormatError(f"{where}: bbox extents must be positive, got w={w}, h={h}")
    return Box.from_coco((x, y, w, h))


def parse_gt(doc) -> GroundTruth:
    """Validate a parsed ground-truth document and convert to GTRecords."""
    if not isinstance(doc, dict):
        raise CocoFormatError(f"ground truth must be a JSON object, got {type(doc).__name__}")
    images: dict[int, tuple[int, int]] = {}
    for where, img in _records(doc.get("images", []), "images"):
        iid = _int_field(img, "id", where)
        if iid in images:
            raise CocoFormatError(f"{where}: duplicate image id {iid}")
        images[iid] = (_int_field(img, "width", where), _int_field(img, "height", where))
    categories: dict[int, str] = {}
    for where, cat in _records(doc.get("categories", []), "categories"):
        cid = _int_field(cat, "id", where)
        if cid in categories:
            raise CocoFormatError(f"{where}: duplicate category id {cid}")
        categories[cid] = str(_require(cat, "name", where))
    records: list[GTRecord] = []
    seen_ann: set[int] = set()
    for where, ann in _records(doc.get("annotations", []), "annotations"):
        aid = _int_field(ann, "id", where)
        where = f"{where} (id={aid})"
        if aid in seen_ann:
            raise CocoFormatError(f"{where}: duplicate annotation id")
        seen_ann.add(aid)
        img_id = _int_field(ann, "image_id", where)
        if images and img_id not in images:
            raise CocoFormatError(f"{where}: unknown image_id {img_id}")
        cat_id = _int_field(ann, "category_id", where)
        if categories and cat_id not in categories:
            raise CocoFormatError(f"{where}: unknown category_id {cat_id}")
        box = _box_from_coco(_require(ann, "bbox", where), where)
        records.append(
            GTRecord(image_id=img_id, class_id=cat_id, box=box, iscrowd=bool(ann.get("iscrowd", 0)))
        )
    return GroundTruth(records=records, images=images, categories=categories)


def parse_detections(doc, categories: dict[int, str] | None = None) -> list[Detection]:
    """Validate a parsed detection array; optionally check category ids."""
    dets: list[Detection] = []
    for where, rec in _records(doc, "detections"):
        img_id = _int_field(rec, "image_id", where)
        cat_id = _int_field(rec, "category_id", where)
        if categories is not None and cat_id not in categories:
            raise CocoFormatError(f"{where}: unknown category_id {cat_id}")
        value = _require(rec, "score", where)
        score = float(value) if type(value) in (int, float) else math.nan
        if not 0.0 <= score <= 1.0:
            raise CocoFormatError(f"{where}: score must be in [0,1], got {value!r}")
        box = _box_from_coco(_require(rec, "bbox", where), where)
        dets.append(Detection(image_id=img_id, class_id=cat_id, box=box, score=score))
    return dets


def _load(path: str, parse, *args):
    """parse(document, *args) of the JSON file at path; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc, *args)
    except OSError as e:
        raise CocoFormatError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise CocoFormatError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except CocoFormatError as e:
        raise CocoFormatError(f"{path}: {e}") from None


def load_gt(path: str) -> GroundTruth:
    return _load(path, parse_gt)


def load_detections(path: str, categories: dict[int, str] | None = None) -> list[Detection]:
    return _load(path, parse_detections, categories)


def gt_to_dict(gt: GroundTruth) -> dict:
    """Serialize ground truth back to the COCO object layout."""
    return {
        "images": [{"id": i, "width": w, "height": h} for i, (w, h) in sorted(gt.images.items())],
        "annotations": [
            {
                "id": i + 1,
                "image_id": r.image_id,
                "category_id": r.class_id,
                "bbox": r.box.to_coco(),
                "area": r.box.area,
                "iscrowd": int(r.iscrowd),
            }
            for i, r in enumerate(gt.records)
        ],
        "categories": [{"id": c, "name": n} for c, n in sorted(gt.categories.items())],
    }


def detections_to_list(dets: list[Detection]) -> list[dict]:
    return [
        {
            "image_id": d.image_id,
            "category_id": d.class_id,
            "bbox": d.box.to_coco(),
            "score": d.score,
        }
        for d in dets
    ]


def save_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
