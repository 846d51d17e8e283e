"""The shared JSON reader: its one number rule, and fuzzed COCO and config
input that must either parse or fail with a located InputError."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnmask.cli import RunConfig, _split_config
from attnmask.coco_io import parse_detections, parse_gt
from attnmask.inputs import InputError, checked, field, load_json, replace_checked
from attnmask.model import ModelConfig
from attnmask.synth import SynthSpec
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

_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


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
@given(_fuzzed(st.lists(_detection, max_size=4)), st.sampled_from([None, {1: "disk", 2: "box"}]))
def test_fuzz_parse_detections(doc, categories):
    _only_input_errors(parse_detections, doc, categories)


_value = (st.integers(-1, 3) | st.sampled_from([-1, 0, 1, 2, 3, 7, 28, 0.0, 0.5, 1.5, "2", "x", "adaptive"])
          | st.lists(st.integers(-1, 30), max_size=3) | _json)


def _overrides(names):
    """Config overrides: each known field or not, plus maybe an unknown one,
    holding small or edge values, small int arrays or any JSON value."""
    return st.fixed_dictionaries({}, optional={name: _value for name in names + ["unknown"]})


_CONFIG_KEYS = [*SynthSpec.__dataclass_fields__, *RunConfig.__dataclass_fields__, "model", "train"]


@_FUZZ
@given(_overrides(_CONFIG_KEYS))
def test_fuzz_split_config(cfg):
    _only_input_errors(_split_config, cfg, "c.json")


@pytest.mark.parametrize(
    "base, name",
    [pytest.param(base, name, id=f"{type(base).__name__}.{name}")
     for base in (TrainConfig.toy(), ModelConfig.toy()) for name in base.__dataclass_fields__],
)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(value=_value)
def test_fuzz_replace_checked(base, name, value):
    _only_input_errors(replace_checked, base, {name: value}, "config c.json: section")
