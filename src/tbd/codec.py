"""One JSON codec for configs, scenarios, cells, posteriors and trial data.
Non-finite floats are written as "nan", "inf" and "-inf" and read back only
into float-typed fields and arrays; float dict keys are written as
``format(k, "g")``, so 3.0 and 4.5 key as "3" and "4.5", and read back with
the dict's key type. ``decode`` casts numbers to the hinted int or float, so
``5`` and ``5.0`` read alike, gives absent fields their defaults and refuses
keys that name no field; a value that does not fit is refused naming its
dataclass and field.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np


def encode(v):
    """JSON value of ``v``: dataclasses become objects of their fields,
    tuples and arrays become lists, non-finite floats become strings."""
    if type(v) is float and math.isfinite(v):  # the most common value, first
        return v
    if is_dataclass(v):
        return {f.name: encode(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {format(k, "g") if isinstance(k, float) else k: encode(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return v.tolist() if np.isfinite(v).all() else encode(v.tolist())
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    f = float(v)
    if math.isnan(f):
        return "nan"
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f


class DecodeError(ValueError):
    """A document that does not fit its type; the message starts with the
    dataclass and field it was read into, as in ``StudyConfig.replicates:``."""


@functools.cache
def _form(hint):
    """``hint``'s origin, its arguments other than None, and its field
    types if it is a dataclass, worked out once per hint."""
    args = tuple(a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint), args, typing.get_type_hints(hint) if is_dataclass(hint) else None


def decode(hint, v):
    """Inverse of ``encode`` for a value of type ``hint``; ``ValueError``
    for a document that does not fit the type."""
    if type(v) is hint and hint in (float, int, str):  # already the hinted scalar
        return v
    origin, args, hints = _form(hint)
    if origin in (typing.Union, types.UnionType):  # ``X | None``
        return None if v is None else decode(args[0], v)
    if origin in (list, tuple):
        return origin(decode(args[0], x) for x in v)
    if origin is dict:
        return {decode(args[0], k): decode(args[1], x) for k, x in v.items()}
    if hints is not None:
        if not isinstance(v, dict):
            raise ValueError(f"{hint.__name__}: expected an object, got {v!r}")
        unknown = sorted(v.keys() - hints.keys())
        if unknown:
            raise DecodeError(f"{hint.__name__}: unknown keys {unknown}")
        values = {}
        for k, x in v.items():
            try:
                values[k] = decode(hints[k], x)
            except DecodeError:
                raise
            except (TypeError, ValueError) as exc:
                raise DecodeError(f"{hint.__name__}.{k}: {exc}") from exc
        try:
            return hint(**values)
        except TypeError as exc:  # a required field is absent
            raise DecodeError(f"{hint.__name__}: {exc}") from exc
    if hint is np.ndarray:
        return np.asarray(v, dtype=float)
    if hint is int:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or v != int(v):
            raise ValueError(f"expected an integer, got {v!r}")
        return int(v)
    if hint is float:
        if isinstance(v, bool) or not isinstance(v, (numbers.Real, str)):
            raise ValueError(f"expected a number, got {v!r}")
        return float(v)
    return v
