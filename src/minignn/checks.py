"""Checks on values read from outside the program.

Run configs, generator params, dataset files and checkpoints are JSON, and
every value in them is checked here, by one set of rules:

- an integer is never a JSON ``true``/``false`` and fits int64;
- a number (a float field) is never a ``true``/``false`` and converts to a
  finite float64;
- a bool is ``true`` or ``false``;
- an array is rectangular and holds only such integers or numbers;
- a file is a JSON object whose ``"version"`` is the one its reader reads.

A dataclass's int, float and bool fields are checked from their annotations,
which are strings because each module defers annotations.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np

KINDS = {"int": "an integer", "float": "a finite number", "bool": "true or false"}
DTYPES = {"int": np.int64, "float": np.float64}  # of an array of each kind


class ConfigError(ValueError):
    """A value read from outside the program that breaks its rules."""


def check_keys(obj, cls, context: str) -> None:
    """Raise ConfigError unless obj is a JSON object whose keys are fields of cls."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def make_config(cls, obj, context: str):
    """cls(**obj) after check_keys, with a missing key reported as a ConfigError."""
    check_keys(obj, cls, context)
    try:
        return cls(**obj)
    except TypeError as err:
        raise ConfigError(f"bad {context}: {err}") from err


def _fits(value, kind: str) -> bool:
    """Whether one value is of kind "int", "float" or "bool" (see the module rules)."""
    if isinstance(value, (bool, np.bool_)) or kind == "bool":
        return kind == "bool" and isinstance(value, bool)
    if kind == "int":
        return isinstance(value, (int, np.integer)) and -2 ** 63 <= value < 2 ** 63
    try:
        return isinstance(value, (int, float, np.integer, np.floating)) and math.isfinite(value)
    except OverflowError:  # an integer beyond float64
        return False


def check_value(what: str, value, kind: str, low=None, high=None) -> None:
    """Raise ConfigError unless value is of kind ("int", "float" or "bool") and,
    where they are given, low <= value <= high."""
    if not (_fits(value, kind) and (low is None or value >= low)
            and (high is None or value <= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ConfigError(f"{what} must be {KINDS[kind]}{bound}, got {value!r}")


def check_fields(context: str, values: dict, types: dict, bounds: dict) -> None:
    """check_value each values[name] whose annotation types[name] is a kind
    ("int", "float" or "bool"), within bounds.get(name): (low,) or (low, high)."""
    for name, value in values.items():
        if types.get(name) in KINDS:
            check_value(f"{context} {name}", value, types[name], *bounds.get(name, ()))


def as_array(name: str, values, kind: str) -> np.ndarray:
    """values as an int64 ("int") or a float64 ("float") array, naming ``name``
    in any error. A numpy array of integers or a boolean mask is read as "int"
    without a sweep, and without a copy when it is int64 already. Any other
    values are swept one by one, since numpy would read a ``true`` as 1: each
    must be of kind, except that an "int" array may hold integral floats, and
    a ragged list raises."""
    if kind == "int" and isinstance(values, np.ndarray) and values.dtype.kind in "iub":
        return values.astype(np.int64, copy=False)
    bad = [v for v in np.asarray(values, dtype=object).ravel().tolist()
           if not (_fits(v, kind) or kind == "int" and isinstance(v, float)
                   and v.is_integer() and _fits(int(v), kind))]
    if any(isinstance(v, list) for v in bad):
        raise ConfigError(f"{name} must be a rectangular array of numbers")
    if bad:
        raise ConfigError(f"{name} must hold {'integers' if kind == 'int' else 'finite numbers'}, "
                          f"got {bad[0]!r}")
    return np.asarray(values).astype(DTYPES[kind], copy=False)


def read_json(path, what: str, version: int) -> dict:
    """The JSON object in the file at ``path``, a ``what`` (e.g. "checkpoint")
    whose "version" must equal ``version``; a JSON ``true`` is no version."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must be a JSON object")
    found = obj.get("version")
    if isinstance(found, bool) or found != version:
        raise ConfigError(f"{what} {path} has version {found!r}, expected {version}")
    return obj
