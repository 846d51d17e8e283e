"""The shared JSON reader: its one number rule, and fuzzed COCO and config
input that must either parse or fail with a located InputError."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnmask import coco_io
from attnmask.attention import VARIANTS
from attnmask.cli import RunConfig, _split_config
from attnmask.coco_io import GroundTruth, parse_detections, parse_gt
from attnmask.inputs import InputError, checked, field, load_json, records, replace_checked, require
from attnmask.model import ModelConfig
from attnmask.synth import SUPPORTED_SHAPES, SynthSpec
from attnmask.train import TrainConfig


@pytest.mark.parametrize(
    "kind, value, expected",
    [
        ("int", 3, 3),
        ("int", 3.0, 3),
        ("float", 2, 2.0),
        ("float", 0.25, 0.25),
        ("str", "a", "a"),
        ("bool", False, False),
        ("int | None", None, None),
        ("int | str", 5.0, 5),
        ("tuple[int, ...]", [1, 2.0], (1, 2)),
        ("tuple[float, float]", [1, 0.5], (1.0, 0.5)),
        ("object", {"a": 1}, {"a": 1}),
    ],
)
def test_checked_reads_values_of_their_kind(kind, value, expected):
    got = checked(kind, value, "w")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "kind, value",
    [
        ("int", 3.7), ("int", True), ("int", "3"), ("float", True), ("float", math.nan), ("float", -math.inf),
        ("float", 10**400), ("str", 5), ("bool", 1), ("int | None", "x"), ("tuple[int, int]", [1, 2, 3]),
        ("tuple[float, ...]", (1.0,)), ("tuple[int, ...]", [1, False]), ("tuple[int, str]", [1, "a"]), ("object", [1]),
        ("StageConfig", {}),
    ],
)
def test_checked_rejects_naming_where_and_value(kind, value):
    with pytest.raises(InputError, match=r"^cfg: x must be "):
        checked(kind, value, "cfg: x")


def test_field_and_replace_checked_locate_their_errors():
    assert field({}, "iscrowd", "int", "rec", 0) == 0
    with pytest.raises(InputError, match="rec: missing required field 'id'"):
        field({}, "id", "int", "rec")
    cfg = replace_checked(TrainConfig.toy(), {"epochs": 3.0, "step_epochs": [1]}, "config c.json: train")
    assert cfg.epochs == 3 and type(cfg.epochs) is int and cfg.step_epochs == (1,)
    with pytest.raises(InputError, match="config c.json: train: unknown field 'epoch'"):
        replace_checked(TrainConfig.toy(), {"epoch": 3}, "config c.json: train")
    with pytest.raises(InputError, match=r"config c.json: train: step_epochs must be in \[0,3\), got \[18, 23\]"):
        replace_checked(TrainConfig.toy(), {"epochs": 3}, "config c.json: train")


def test_require_names_the_first_failing_field():
    spec = SynthSpec()
    require(spec, "at least 0", lambda v: v >= 0, "canvas", "noise")  # both hold
    with pytest.raises(ValueError, match=r"^canvas must be at most 1, got 64$"):
        require(spec, "at most 1", lambda v: v <= 1, "noise", "canvas", "n_objects")  # a pair, never compared


def test_load_json_names_the_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[1]")
    assert load_json(str(path), len) == 1
    with pytest.raises(InputError, match=rf"^{path}: top must be object, got \[1\]$"):
        load_json(str(path), lambda doc: checked("object", doc, "top"))


# -- fuzzing: every input parses or raises InputError ----------------------------

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, 2.0, 0.5, "adaptive", "2", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _slots(node):
    """(container, key) of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def _fuzzed(draw, valid):
    """A well-formed document, half the time with one value (the whole
    document included) replaced by any JSON value."""
    root = [draw(valid)]
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(list(_slots(root))))
        node[key] = draw(_json)
    return root[0]


_coord, _extent = st.floats(-5, 60) | st.integers(-5, 60), st.floats(0, 60) | st.integers(0, 60)
_bbox = st.tuples(_coord, _coord, _extent, _extent).map(list)
_image = st.fixed_dictionaries({"id": st.integers(0, 1), "width": st.integers(1, 64), "height": st.integers(1, 64)})
_category = st.fixed_dictionaries({"id": st.integers(1, 2), "name": st.text(max_size=4)})
_annotation = st.fixed_dictionaries(
    {"id": st.integers(0, 99), "image_id": st.integers(0, 1), "category_id": st.integers(1, 2), "bbox": _bbox},
    optional={"iscrowd": st.sampled_from([0, 1, True, False, 1.0])},
)
_gt_doc = st.fixed_dictionaries({}, optional={
    "images": st.lists(_image, max_size=2),
    "categories": st.lists(_category, max_size=2),
    "annotations": st.lists(_annotation, max_size=4),
})
_detection = st.fixed_dictionaries({"image_id": st.integers(0, 1), "category_id": st.integers(1, 3),
                                    "score": st.floats(0, 1.05), "bbox": _bbox})

_FUZZ = settings(max_examples=150)


def _only_input_errors(fn, *args):
    try:
        fn(*args)
    except InputError:
        pass


@_FUZZ
@given(_fuzzed(_gt_doc))
def test_fuzz_parse_gt(doc):
    _only_input_errors(parse_gt, doc)


@_FUZZ
@given(_fuzzed(st.lists(_detection, max_size=4)),
       st.sampled_from([None, GroundTruth(records=[], images={0: (8, 8)}, categories={1: "disk", 2: "box"})]))
def test_fuzz_parse_detections(doc, gt):
    _only_input_errors(parse_detections, doc, gt)


# -- the column reader agrees with the record rule -------------------------------

# each mutation breaks, or keeps within, one clause of the record rule
_mutant = st.sampled_from([
    True, False, math.nan, math.inf, -math.inf,  # booleans and non-finite floats
    2**63, -2**63 - 1, 2**63 - 1, 10**400, 1e300, 2.0**63,  # at and past int64 and float range
    0, 1, 2, 3.0, 7, -1.5, 0.5, 1.5,  # integral floats, unlisted ids, scores outside [0, 1]
    "1", None, {}, [],  # not numbers
    [1, 2, 3], [1, 2, 3, 4, 5], [0, 0, 0, 4],  # bbox lengths other than 4, an empty extent
    [1e17, 0, 1, 1], [0, -1e17, 1, 1],  # collapsing corners
    [1e308, 0, 1e308, 1], [0, 0, 1e200, 1e200],  # overflowing corners and areas
]).map(copy.deepcopy)


@st.composite
def _mutated(draw, valid):
    """Valid records with up to two mutations: a field deleted, set to a
    mutant, one bbox component set to one, or a whole record replaced."""
    recs = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        if not recs:
            break
        i = draw(st.integers(0, len(recs) - 1))
        rec = recs[i]
        if type(rec) is not dict or not rec or draw(st.integers(0, 19)) == 0:
            recs[i] = draw(_mutant)
            continue
        key = draw(st.sampled_from(sorted(rec)))
        how = draw(st.integers(0, 3))
        if how == 0:
            del rec[key]
        elif how == 1 and type(rec[key]) is list and rec[key]:
            rec[key][draw(st.integers(0, len(rec[key]) - 1))] = draw(_mutant)
        else:
            rec[key] = draw(_mutant)
    return recs


def _agrees_with_the_record_rule(parse, doc, name, rule, maps, table_of):
    """parse(doc) returns the columns of rule's reads of doc[name]'s
    records, or raises the InputError that the rule raises first."""
    items = doc if name == "detections" else doc["annotations"]
    try:
        reads = [rule(rec, where, *maps) for where, rec in records(items, name)]
    except InputError as e:
        with pytest.raises(InputError) as got:
            parse(doc)
        assert str(got.value) == str(e)
        return
    table = table_of(parse(doc))
    img, cat, boxes, last = zip(*reads) if reads else ((), (), (), ())
    assert table.image_id.dtype == table.class_id.dtype == np.int64
    assert table.image_id.tolist() == list(img) and table.class_id.tolist() == list(cat)
    assert table.boxes.dtype == np.float64 and table.boxes.shape == (len(reads), 4)
    assert table.boxes.tobytes() == np.array(boxes, dtype=np.float64).reshape(-1, 4).tobytes()
    got_last = table.score if name == "detections" else table.iscrowd
    assert got_last.tobytes() == np.array(last, dtype=got_last.dtype).tobytes()


_LISTED = GroundTruth(records=[], images={0: (8, 8), 1: (8, 8)}, categories={1: "disk", 2: "box"})
_image_id, _category_id = st.sampled_from([0, 1, 1.0]), st.sampled_from([1, 2, 2.0])  # listed in _LISTED
_fine_extent = st.floats(0.5, 60) | st.integers(1, 60)
_fine_bbox = st.tuples(_coord, _coord, _fine_extent, _fine_extent).map(list)
_scored = st.fixed_dictionaries({"image_id": _image_id, "category_id": _category_id,
                                 "score": st.floats(0, 1) | st.sampled_from([0, 1]), "bbox": _fine_bbox})
_crowded = st.fixed_dictionaries(
    {"id": st.integers(0, 99), "image_id": _image_id, "category_id": _category_id, "bbox": _fine_bbox},
    optional={"iscrowd": st.sampled_from([0, 1, True, False, 1.0, 0.0])},
)


_DET = {"image_id": 0, "category_id": 1, "score": 0.5, "bbox": [1, 2, 3, 4]}
_ANN = {"id": 1, "image_id": 0, "category_id": 1, "bbox": [1, 2, 3, 4]}


@_FUZZ
@given(_mutated(st.lists(_scored, max_size=6)), st.sampled_from([None, _LISTED]))
@example([_DET, {**_DET, "bbox": [1e17, 0, 1, 1]}], None)  # each clause alone, late in its column
@example([_DET, {**_DET, "bbox": [0, 0, 1e200, 1e200]}], None)
@example([_DET, {**_DET, "bbox": [0, 0, 0, 1]}], None)
@example([_DET, {**_DET, "score": 1.5}], None)
@example([_DET, {**_DET, "image_id": 2**63}], None)
@example([_DET, {**_DET, "category_id": 1e300}], None)
@example([_DET, {**_DET, "image_id": 2.0}], _LISTED)
@example([_DET, {**_DET, "image_id": 1.5}], None)
@example([_DET, {**_DET, "category_id": math.nan}], None)
@example([_DET, {**_DET, "bbox": [0, 0, 10**400, 1]}], None)
@example([_DET, {**_DET, "bbox": [0, 0, 2**1024 - 2**970 - 1, 1]}], None)  # rounds to the largest float
def test_detection_columns_agree_with_the_record_rule(doc, gt):
    maps = (gt.images, gt.categories) if gt is not None else ({}, {})
    _agrees_with_the_record_rule(lambda d: parse_detections(d, gt), doc, "detections", coco_io._detection, maps,
                                 lambda table: table)


@_FUZZ
@given(_mutated(st.lists(_crowded, max_size=6)), st.booleans())
@example([_ANN, {**_ANN, "id": 2, "iscrowd": 2}], False)
@example([_ANN, {**_ANN, "id": 2, "iscrowd": 0.5}], False)
@example([_ANN, {**_ANN, "id": 2, "iscrowd": True}, {**_ANN, "id": 3.0, "iscrowd": 1.0}], True)
@example([_ANN, {**_ANN, "id": 1.0}], False)
@example([_ANN, {**_ANN, "id": 2**63}], False)
@example([_ANN, {**_ANN, "id": 10**30, "image_id": 3}], True)
def test_annotation_columns_agree_with_the_record_rule(anns, listed):
    doc = {"annotations": anns}
    if listed:
        doc.update(images=[{"id": i, "width": 8, "height": 8} for i in _LISTED.images],
                   categories=[{"id": c, "name": n} for c, n in _LISTED.categories.items()])
    maps = (_LISTED.images, _LISTED.categories, set()) if listed else ({}, {}, set())
    _agrees_with_the_record_rule(parse_gt, doc, "annotations", coco_io._annotation, maps, lambda gt: gt.records)


_value = (st.integers(-1, 3) | st.sampled_from([-1, 0, 1, 2, 3, 7, 28, 0.0, 0.5, 1.5, "2", "x", "adaptive"])
          | st.lists(st.integers(-1, 30), max_size=3) | _json)


def _overrides(names):
    """Config overrides: each known field or not, plus maybe an unknown one,
    holding small or edge values, small int arrays or any JSON value."""
    return st.fixed_dictionaries({}, optional={name: _value for name in names + ["unknown"]})


# top-level fields, scene classes that set the scenes' num_classes, and
# model and train sections of their own fields or of any value
_CONFIG = st.fixed_dictionaries({}, optional={
    **{name: _value for name in [*SynthSpec.__dataclass_fields__, *RunConfig.__dataclass_fields__, "unknown"]},
    "classes": st.lists(st.sampled_from(SUPPORTED_SHAPES + ("star",)), max_size=4) | _value,
    "model": _overrides([*ModelConfig.__dataclass_fields__]) | _value,
    "train": _overrides([*TrainConfig.__dataclass_fields__]) | _value,
})


@_FUZZ
@given(_CONFIG, st.integers(0, 2**32))
def test_fuzz_split_config(cfg, seed):
    _only_input_errors(_split_config, cfg, "c.json", VARIANTS, seed)


@pytest.mark.parametrize(
    "base, name",
    [pytest.param(base, name, id=f"{type(base).__name__}.{name}")
     for base in (TrainConfig.toy(), ModelConfig.toy(), SynthSpec(), RunConfig())
     for name in base.__dataclass_fields__],
)
@settings(max_examples=25)
@given(value=_value)
def test_fuzz_replace_checked(base, name, value):
    # every diagnostic names the field it rejects
    try:
        replace_checked(base, {name: value}, "config c.json: section")
    except InputError as e:
        assert name in str(e), str(e)
