"""JSON formats: validation diagnostics and reading files from disk."""

import json
import sys

import pytest

import attnmask
from attnmask.coco_io import load_detections, load_gt, parse_detections, parse_gt, save_json
from attnmask.inputs import InputError

_BBOX = r"tuple\[float, float, float, float\]"


def _gt_doc():
    return {
        "images": [{"id": 0, "width": 64, "height": 48}],
        "categories": [{"id": 1, "name": "disk"}],
        "annotations": [
            {"id": 1, "image_id": 0, "category_id": 1, "bbox": [4.0, 6.0, 10.0, 8.0]},
            {"id": 2, "image_id": 0, "category_id": 1, "bbox": [20, 20, 5, 5], "iscrowd": 1},
        ],
    }


def test_parse_gt_happy_path():
    gt = parse_gt(_gt_doc())
    assert gt.images == {0: (64, 48)}
    assert gt.categories == {1: "disk"}
    assert len(gt.records) == 2
    assert gt.records.boxes.tolist() == [[4.0, 6.0, 14.0, 14.0], [20.0, 20.0, 25.0, 25.0]]
    assert gt.records.image_id.tolist() == [0, 0] and gt.records.class_id.tolist() == [1, 1]
    assert gt.records.iscrowd.tolist() == [False, True]


def test_parse_gt_diagnostics_name_the_record():
    doc = _gt_doc()
    del doc["annotations"][1]["bbox"]
    with pytest.raises(InputError, match=r"annotations\[1\] \(id=2\): missing required field 'bbox'"):
        parse_gt(doc)

    doc = _gt_doc()
    doc["annotations"][0]["image_id"] = 99
    with pytest.raises(InputError, match=r"annotations\[0\].*unknown image_id 99"):
        parse_gt(doc)

    doc = _gt_doc()
    doc["annotations"][1]["id"] = 1
    with pytest.raises(InputError, match="duplicate annotation id"):
        parse_gt(doc)

    doc = _gt_doc()
    doc["images"].append({"id": 0, "width": 1, "height": 1})
    with pytest.raises(InputError, match=r"images\[1\]: duplicate image id 0"):
        parse_gt(doc)

    doc = _gt_doc()
    doc["categories"][0].pop("name")
    with pytest.raises(InputError, match=r"categories\[0\]: missing required field 'name'"):
        parse_gt(doc)

    with pytest.raises(InputError, match=r"ground truth must be object, got \[1, 2, 3\]"):
        parse_gt([1, 2, 3])


def test_parse_gt_rejects_bad_boxes():
    doc = _gt_doc()
    doc["annotations"][0]["bbox"] = [0, 0, -1, 5]
    with pytest.raises(InputError, match="extents must be positive"):
        parse_gt(doc)
    doc["annotations"][0]["bbox"] = [0, 0, 5]
    with pytest.raises(InputError, match=rf"annotations\[0\] \(id=1\): bbox must be {_BBOX}, got \[0, 0, 5\]"):
        parse_gt(doc)


def test_parse_detections_happy_path_and_checks():
    doc = [{"image_id": 0, "category_id": 1, "score": 0.75, "bbox": [1, 2, 3, 4]}]
    dets = parse_detections(doc)
    assert dets.score.tolist() == [0.75] and dets.class_id.tolist() == [1]
    assert dets.boxes.tolist() == [[1.0, 2.0, 4.0, 6.0]]
    assert parse_detections([{**doc[0], "image_id": 2.0}]).image_id.tolist() == [2]  # integral float

    with pytest.raises(InputError, match=r"detections must be array, got \{'a': 1\}"):
        parse_detections({"a": 1})
    with pytest.raises(InputError, match=r"detections\[0\]: score must be in \[0,1\]"):
        parse_detections([{**doc[0], "score": 1.2}])
    with pytest.raises(InputError, match=r"detections\[0\]: unknown category_id 7"):
        parse_detections([{**doc[0], "category_id": 7}], parse_gt(_gt_doc()))
    with pytest.raises(InputError, match=r"detections\[1\] must be object, got 5"):
        parse_detections([doc[0], 5])


def test_detection_ids_follow_the_annotation_rule():
    # an id must be listed in the ground truth's map when that map is non-empty
    gt = parse_gt(_gt_doc())
    assert parse_detections([_DET], gt).image_id.tolist() == [0]
    with pytest.raises(InputError, match=r"^detections\[1\]: unknown image_id 2$"):
        parse_detections([_DET, {**_DET, "image_id": 2}], gt)
    unlisted = parse_gt({"annotations": [{"id": 1, "image_id": 5, "category_id": 7, "bbox": [1, 2, 3, 4]}]})
    assert parse_detections([{**_DET, "image_id": 2, "category_id": 7}], unlisted).image_id.tolist() == [2]


_DET = {"image_id": 0, "category_id": 1, "score": 0.5, "bbox": [1, 2, 3, 4]}


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (parse_gt, {**_gt_doc(), "annotations": [5]}, r"annotations\[0\] must be object, got 5"),
        (parse_gt, {**_gt_doc(), "images": "oops"}, r"images must be array, got 'oops'"),
        (parse_detections, [_DET, {**_DET, "bbox": [float("nan"), 0, 1, 1]}],
         rf"detections\[1\]: bbox must be {_BBOX}, got \[nan, 0, 1, 1\]"),
        (parse_detections, [{**_DET, "bbox": [0, 0, float("inf"), 1]}],
         rf"detections\[0\]: bbox must be {_BBOX}, got \[0, 0, inf, 1\]"),
        (parse_detections, [{**_DET, "bbox": ["a", 0, 1, 1]}],
         rf"detections\[0\]: bbox must be {_BBOX}, got \['a', 0, 1, 1\]"),
        (parse_detections, [{**_DET, "image_id": "x"}],
         r"detections\[0\]: image_id must be int, got 'x'"),
        (parse_detections, [{**_DET, "score": "x"}], r"detections\[0\]: score must be float, got 'x'"),
        (parse_detections, [{**_DET, "image_id": 3.7}], r"detections\[0\]: image_id must be int, got 3\.7"),
        (parse_detections, [{**_DET, "category_id": True}],
         r"detections\[0\]: category_id must be int, got True"),
        (parse_gt, {**_gt_doc(), "images": [{"id": 0, "width": 64, "height": 2.5}]},
         r"images\[0\]: height must be int, got 2\.5"),
        (parse_detections, [{**_DET, "score": True}], r"detections\[0\]: score must be float, got True"),
        (parse_gt, {**_gt_doc(), "annotations": [{**_gt_doc()["annotations"][0], "bbox": [True, 0, 1, 1]}]},
         rf"annotations\[0\] \(id=\d+\): bbox must be {_BBOX}, got \[True, 0, 1, 1\]"),
        (parse_detections, [{**_DET, "bbox": [0, 0, "2", 1]}],
         rf"detections\[0\]: bbox must be {_BBOX}, got \[0, 0, '2', 1\]"),
        (parse_detections, [{**_DET, "bbox": [0, 0, 10**400, 1]}],
         rf"detections\[0\]: bbox must be {_BBOX}, got \[0, 0, 1000.*000, 1\]"),
        (parse_gt, {**_gt_doc(), "annotations": [{**_gt_doc()["annotations"][0], "iscrowd": "0"}]},
         r"annotations\[0\] \(id=1\): iscrowd must be int \| bool, got '0'"),
        (parse_gt, {**_gt_doc(), "annotations": [{**_gt_doc()["annotations"][0], "iscrowd": 2}]},
         r"annotations\[0\] \(id=1\): iscrowd must be 0, 1, true or false, got 2"),
        (parse_gt, {**_gt_doc(), "categories": [{"id": 1, "name": 5}]}, r"categories\[0\]: name must be str, got 5"),
        (parse_detections, [_DET, {**_DET, "bbox": [1e308, 0, 1e308, 1]}],
         r"detections\[1\]: bbox corner or area overflows, got \[1e\+308, 0\.0, 1e\+308, 1\.0\]"),
        (parse_detections, [{**_DET, "bbox": [1e308, 0, 1e308, 1e-300]}], r"detections\[0\]: bbox corner or area"),
        (parse_detections, [{**_DET, "bbox": [0, 1e308, 1e-300, 1e308]}], r"detections\[0\]: bbox corner or area"),
        (parse_gt, {**_gt_doc(), "annotations": [{**_gt_doc()["annotations"][0], "bbox": [0, 0, 1e200, 1e200]}]},
         r"annotations\[0\] \(id=1\): bbox corner or area overflows, got \[0\.0, 0\.0, 1e\+200, 1e\+200\]"),
        (parse_detections, [{**_DET, "bbox": [2**60, 0, 150, 4e305]}],
         r"detections\[0\]: bbox corner or area overflows, got \[1\.152921504606847e\+18, 0\.0, 150\.0, 4e\+305\]"),
        (parse_detections, [_DET, {**_DET, "bbox": [1e17, 0, 1, 1]}],
         r"detections\[1\]: bbox corners collapse in float, got \[1e\+17, 0\.0, 1\.0, 1\.0\]"),
        (parse_gt, {**_gt_doc(), "annotations": [{**_gt_doc()["annotations"][0], "bbox": [0, -1e17, 1, 1]}]},
         r"annotations\[0\] \(id=1\): bbox corners collapse in float, got \[0\.0, -1e\+17, 1\.0, 1\.0\]"),
        (parse_gt, {**_gt_doc(), "images": [{"id": 0, "width": -5, "height": 48}]},
         r"images\[0\]: width and height must be positive, got \(-5, 48\)"),
        (parse_gt, {**_gt_doc(), "images": [{"id": 0, "width": 64, "height": 0}]},
         r"images\[0\]: width and height must be positive, got \(64, 0\)"),
    ],
    ids=["record-not-object", "section-not-array", "nan-bbox", "inf-bbox", "text-bbox", "text-id", "text-score",
         "fractional-id", "bool-id", "fractional-height", "bool-score", "bool-bbox", "numeric-text-bbox",
         "overflowing-bbox", "text-iscrowd", "two-iscrowd", "int-name", "overflowing-corner", "overflowing-x2",
         "overflowing-y2", "overflowing-area", "overflowing-corner-area", "collapsed-x", "collapsed-y",
         "negative-width", "zero-height"],
)
def test_malformed_input_names_record_and_field(parse, doc, message):
    with pytest.raises(InputError, match=message):
        parse(doc)


def _many_dets(n=2000):
    return [{"image_id": i % 20, "category_id": 1 + i % 3, "score": (i % 100) / 100, "bbox": [i % 50, 3.5, 10, 8.25]}
            for i in range(n)]


def test_a_late_bad_record_is_named_by_its_index():
    # the column checks find the bad score and the later unlisted image at
    # once; the record rule then names the first of them, with today's text
    dets = _many_dets()
    dets[1500]["score"] = 1.5
    dets[1700]["image_id"] = "7"
    with pytest.raises(InputError, match=r"^detections\[1500\]: score must be in \[0,1\], got 1\.5$"):
        parse_detections(dets)
    dets[1500]["score"] = 0.5
    with pytest.raises(InputError, match=r"^detections\[1700\]: image_id must be int, got '7'$"):
        parse_detections(dets)


def test_load_detections_builds_no_records(tmp_path, monkeypatch):
    # the reader makes columns: no Detection and no Box per record
    calls, records = [], {"Box": attnmask.boxes.Box, "Detection": attnmask.metrics.Detection}

    def counting(cls):
        return lambda *args, **kwargs: calls.append(cls.__name__) or cls(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "attnmask":
            for record, cls in records.items():
                if hasattr(mod, record):
                    monkeypatch.setattr(mod, record, counting(cls))
    path = tmp_path / "det.json"
    path.write_text(json.dumps(_many_dets()))
    dets = load_detections(str(path))
    assert len(dets) == 2000 and dets.boxes.shape == (2000, 4)
    assert calls == []
    attnmask.metrics.Detection(0, 1, attnmask.boxes.Box(0.0, 0.0, 1.0, 1.0), 0.5)  # the patch counts
    assert calls == ["Box", "Detection"]


def test_load_reports_file_and_json_errors(tmp_path):
    with pytest.raises(InputError, match="nope.json"):
        load_gt(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"images": [\n  {"id": }\n]}')
    with pytest.raises(InputError, match="line 2 column"):
        load_gt(str(bad))


def test_round_trip_through_disk(tmp_path):
    gt_path = tmp_path / "gt.json"
    save_json(_gt_doc(), str(gt_path))
    gt = load_gt(str(gt_path))
    assert gt.images == {0: (64, 48)} and gt.categories == {1: "disk"}
    r = gt.records
    assert list(zip(r.image_id.tolist(), r.class_id.tolist(), r.iscrowd.tolist())) == [(0, 1, False), (0, 1, True)]

    det_path = tmp_path / "det.json"
    save_json([{"image_id": 0, "category_id": 1, "bbox": [8.0, 7.0, 4.0, 6.0], "score": 0.5}], str(det_path))
    again = load_detections(str(det_path), gt)
    assert again.boxes.tolist() == [[8.0, 7.0, 12.0, 13.0]]

    # written files are plain JSON with a trailing newline
    text = det_path.read_text()
    assert text.endswith("\n")
    json.loads(text)
