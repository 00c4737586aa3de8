"""One JSON codec for configs, scenarios, cells, posteriors and trial data.
Non-finite floats are written as "nan", "inf" and "-inf"; float dict keys as
``format(k, "g")``, so 3.0 and 4.5 key as "3" and "4.5". An ``np.ndarray``
is written as ``{"shape": [...], "float64le": "<base64>"}``: its values as
little-endian float64 in C order, base64-encoded (RFC 4648), so it reads
back bit for bit, NaN payloads, infinities and -0.0 included. ``decode`` is
the one gate a document passes. It casts numbers to the hinted int or float,
so ``5`` and ``5.0`` read alike, and gives absent fields their defaults. It
refuses, naming the dataclass and field, a key that names no field, a
non-object for a dataclass, dict or array, a non-list for a list or tuple,
a non-string for a str, a non-boolean for a bool, any string but those
three as a float, and an array whose keys, shape or bytes do not fit.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math
import numbers
import reprlib
import types
import typing
from dataclasses import fields, is_dataclass

import numpy as np

def encode(v):
    """JSON value of ``v``: dataclasses become objects of their fields,
    tuples become lists, arrays their shape and base64 float64 bytes,
    non-finite floats strings."""
    if type(v) is float and math.isfinite(v):  # the most common value, first
        return v
    if is_dataclass(v):
        return {f.name: encode(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {format(k, "g") if isinstance(k, float) else k: encode(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        a = np.asarray(v, dtype="<f8", order="C")
        return {"shape": list(a.shape), "float64le": base64.b64encode(a).decode("ascii")}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    f = float(v)
    return f if math.isfinite(f) else "nan" if f != f else "inf" if f > 0 else "-inf"


class DecodeError(ValueError):
    """A document that does not fit its type; the message starts with the
    dataclass and field it was read into, as in ``StudyConfig.replicates:``."""


def _refusal(expected: str, v) -> ValueError:
    return ValueError(f"expected {expected}, got {reprlib.repr(v)}")


@functools.cache
def _form(hint):
    """``hint``'s origin, its arguments other than None, and its field
    types if it is a dataclass, worked out once per hint."""
    args = tuple(a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint), args, typing.get_type_hints(hint) if is_dataclass(hint) else None


_ARRAY_KEYS = ["float64le", "shape"]


def _array(v) -> np.ndarray:
    """The writable array of an ``encode``d one; ``ValueError`` unless ``v``
    holds exactly its two keys, a shape of non-negative integers, and valid
    base64 of as many float64 values as the shape holds."""
    if not isinstance(v, dict):
        raise _refusal(f"an object of {_ARRAY_KEYS}", v)
    if sorted(v) != _ARRAY_KEYS:
        raise ValueError(f"expected keys {_ARRAY_KEYS}, got {sorted(v)}")
    shape = decode(tuple[int, ...], v["shape"])
    if any(d < 0 for d in shape):
        raise ValueError(f"expected a shape of non-negative integers, got {list(shape)}")
    try:
        raw = bytearray(base64.b64decode(decode(str, v["float64le"]), validate=True))
    except binascii.Error as exc:
        raise ValueError(f"invalid base64: {exc}") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes for shape {list(shape)}, "
                         f"which holds {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def decode(hint, v):
    """Inverse of ``encode`` for a value of type ``hint``; ``ValueError``
    for a document that does not fit the type."""
    if type(v) is hint and hint in (float, int, str, bool):  # already the hinted scalar
        return v
    origin, args, hints = _form(hint)
    if origin in (typing.Union, types.UnionType):  # ``X | None``
        return None if v is None else decode(args[0], v)
    if hint is np.ndarray:
        return _array(v)
    if origin in (list, tuple):
        if not isinstance(v, (list, tuple)):
            raise _refusal("a list", v)
        return origin(decode(args[0], x) for x in v)
    if (origin is dict or hints is not None) and not isinstance(v, dict):
        exc = _refusal("an object", v)
        raise exc if hints is None else ValueError(f"{hint.__name__}: {exc}")
    if origin is dict:
        key = float if args[0] is float else functools.partial(decode, args[0])
        return {key(k): decode(args[1], x) for k, x in v.items()}
    if hints is not None:
        if unknown := sorted(v.keys() - hints.keys()):
            raise DecodeError(f"{hint.__name__}: unknown keys {unknown}")
        values = {}
        for k, x in v.items():
            try:
                values[k] = decode(hints[k], x)
            except DecodeError:
                raise
            except (OverflowError, ValueError) as exc:  # a leaf that does not fit
                raise DecodeError(f"{hint.__name__}.{k}: {exc}") from exc
        try:
            return hint(**values)
        except TypeError as exc:  # a required field is absent
            raise DecodeError(f"{hint.__name__}: {exc}") from exc
    if hint is int:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or v % 1:
            raise _refusal("an integer", v)
        return int(v)
    if hint is float:
        if isinstance(v, str) and v not in ("nan", "inf", "-inf"):
            raise ValueError(f"could not convert string to float: {v!r}")
        if isinstance(v, bool) or not isinstance(v, (numbers.Real, str)):
            raise _refusal("a number", v)
        return float(v)
    if hint in (str, bool):
        raise _refusal("a string" if hint is str else "a boolean", v)
    return v
