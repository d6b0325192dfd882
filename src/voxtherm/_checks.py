"""What the input boundaries accept, and how a rejected value is shown.

A dataclass field's annotation is the one statement of its kind. Numpy scalars
pass where their Python counterparts do; a bool is no number."""

from __future__ import annotations

import functools
import numbers
import typing

import numpy as np


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def holds(test) -> bool:
    """``test()``, or False where it raises on a value of the wrong type or range."""
    try:
        return bool(test())
    except (TypeError, ValueError, OverflowError):
        return False


def plain(value):
    """``value`` with numpy scalars and arrays as Python ones, for messages."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        items = [plain(v) for v in value]
        return items if isinstance(value, list) else tuple(items)
    return value


_KINDS = {
    int: (is_integer, "an integer"),
    float: (is_number, "a number"),
    bool: (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple[float, ...]: (lambda v: isinstance(v, tuple) and all(map(is_number, v)),
                        "a tuple of numbers"),
}


@functools.cache
def _kind(hint) -> tuple:
    """(test, what a message calls a value that passes it) of an annotation."""
    if hint in _KINDS:
        return _KINDS[hint]
    if typing.get_origin(hint) is typing.Literal:
        options = typing.get_args(hint)
        return lambda v: isinstance(v, str) and v in options, f"one of {options}"
    return lambda v: isinstance(v, hint), f"a {hint.__name__}"


@functools.cache
def field_types(cls) -> dict:
    """Field name -> annotation of a dataclass, resolved once per class."""
    return typing.get_type_hints(cls)


def check_fields(obj, error) -> None:
    """Raise ``error`` naming the first field whose value is not of its annotated kind."""
    for name, hint in field_types(type(obj)).items():
        test, what = _kind(hint)
        value = getattr(obj, name)
        if not test(value):
            raise error(f"{name} must be {what}, got {plain(value)!r}")
