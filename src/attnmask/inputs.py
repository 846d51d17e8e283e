"""The one reader of JSON input, for COCO files and run configs.

Kinds are spelled like annotations: "int", "float", "str", "bool", "None",
"object", "array", a tuple of one item kind read from an array
("tuple[int, ...]", "tuple[float, float]"), or a union ("int | None");
any other name accepts nothing. One rule reads numbers: booleans are never
numbers, an integral float reads as an int, and floats (ints read as floats
too) are finite. `column` applies that rule to a whole list of values at
once, checking each value's type and range in Python and the rest over
one NumPy array. `require` is the one range rule of the settings
dataclasses: each states a field's bound once, and the diagnostic names the
field, the bound and the value.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import sys

import numpy as np

__all__ = ["INT64", "InputError", "load_json", "records", "field", "checked", "column", "replace_checked",
           "require"]


class InputError(ValueError):
    """Malformed input, with a diagnostic that says where it is."""


_BAD = object()  # what a check returns for a value not of its kind


def _int(v):
    return v if type(v) is int else int(v) if type(v) is float and v.is_integer() else _BAD


def _float(v):
    if type(v) is float and math.isfinite(v):
        return v
    return float(v) if type(v) is int and abs(v) <= _MAX_FLOAT else _BAD


def _is(t):
    return lambda v: v if type(v) is t else _BAD


def _tuple(item, n: int | None):
    def check(v):
        if type(v) is not list or n is not None and len(v) != n:
            return _BAD
        items = tuple(map(item, v))  # one pass of the item check
        return _BAD if _BAD in items else items
    return check


def _union(checks):
    def check(v):
        for c in checks:
            if (read := c(v)) is not _BAD:
                return read
        return _BAD
    return check


class _Checks(dict):
    """kind -> check(value), which returns the value read as kind or _BAD.
    Each kind's check is built once, on first use."""

    def __missing__(self, kind: str):
        items = kind[6:-1].split(", ") if kind.startswith("tuple[") else []
        if " | " in kind:
            check = _union([self[k] for k in kind.split(" | ")])
        elif len(set(items) - {"..."}) == 1:
            check = _tuple(self[items[0]], None if items[-1] == "..." else len(items))
        else:
            check = _union([])  # any other name accepts nothing
        self[kind] = check
        return check


_MAX_FLOAT = int(sys.float_info.max)
INT64 = range(-2**63, 2**63)  # the ints an int64 array holds
_CHECKS = _Checks({"int": _int, "float": _float, "str": _is(str), "bool": _is(bool), "None": _is(type(None)),
                   "object": _is(dict), "array": _is(list)})


def checked(kind: str, value, where: str):
    """value read as kind; where names the value."""
    if (read := _CHECKS[kind](value)) is _BAD:
        raise InputError(f"{where} must be {kind}, got {reprlib.repr(value)}")
    return read


def field(obj: dict, key: str, kind: str, where: str, default=dataclasses.MISSING):
    """obj[key] read as kind (default, if given, when key is absent); where names obj."""
    if key not in obj:
        if default is dataclasses.MISSING:
            raise InputError(f"{where}: missing required field {key!r}")
        return default
    if (read := _CHECKS[kind](obj[key])) is _BAD:
        checked(kind, obj[key], f"{where}: {key}")  # raises the located error
    return read


def column(values: list, kind: str) -> np.ndarray | None:
    """values read as kind, "int" (an int64 array) or "float" (float64), by
    the number rule; None if a value is not of kind or, for "int", is
    outside INT64. field reads a rejected value with its location."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return None  # booleans, strings and the rest are never numbers
    if kind == "int":
        if float in kinds and not all(v.is_integer() for v in values if type(v) is float):
            return None
        if values and not (INT64.start <= min(values) and max(values) < INT64.stop):
            return None
        return np.array(values, dtype=np.int64)
    if int in kinds and any(abs(v) > _MAX_FLOAT for v in values if type(v) is int):
        return None
    col = np.array(values, dtype=np.float64)
    return col if np.isfinite(col).all() else None


def records(items, name: str):
    """(location, record) pairs of the JSON array of objects called name."""
    for i, rec in enumerate(checked("array", items, name)):
        where = f"{name}[{i}]"
        if type(rec) is not dict:
            checked("object", rec, where)  # raises the located error
        yield where, rec


def require(obj, bound: str, ok, *names: str) -> None:
    """Raise ValueError("<name> must be <bound>, got <value>") at the first
    of obj's named fields whose value fails ok."""
    for name in names:
        if not ok(value := getattr(obj, name)):
            raise ValueError(f"{name} must be {bound}, got {value}")


def replace_checked(obj, overrides: dict, where: str):
    """dataclasses.replace(obj, **overrides), each value read as its field's
    annotation; errors, the dataclass's own checks included, say where."""
    kinds = {f.name: f.type for f in dataclasses.fields(obj)}
    fixed = {}
    for key, value in overrides.items():
        if key not in kinds:
            raise InputError(f"{where}: unknown field {key!r}")
        fixed[key] = checked(kinds[key], value, f"{where}: {key}")
    try:
        return dataclasses.replace(obj, **fixed)
    except ValueError as e:
        raise InputError(f"{where}: {e}") from e


def load_json(path: str, parse, *args):
    """parse(document, *args) of the JSON file at path; errors name the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc, *args)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e
    except RecursionError as e:
        raise InputError(f"{path}: invalid JSON: nested too deeply to read") from e
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
