"""Exception types shared across the package.

Every failure mode named in a module contract maps to one of these, so
callers can catch precisely and tests can assert on type. Every JSON file
read back is parsed and checked here alone, so that a bad one is an error
that names it, and the float64 arrays those files hold share one codec.
"""

import base64
import contextlib
import json
import math
import reprlib
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np


class AttnAlignError(Exception):
    """Base class for all package errors."""


class ShapeError(AttnAlignError):
    """Operand dimensions disagree; message names both shapes."""


class DegenerateRowError(AttnAlignError):
    """A softmax row has no unmasked entries."""


class CapacityError(AttnAlignError):
    """Input sequence exceeds the configured maximum length."""


class SelectionError(AttnAlignError):
    """An attention query set is empty or out of the text spans."""


class ParameterError(AttnAlignError):
    """A hyperparameter is outside its valid range (R, B, K, ...)."""


class DegenerateRatioError(AttnAlignError):
    """Visual attention ratio denominator is zero."""


class DegenerateAttentionError(AttnAlignError):
    """An attention map has zero total mass where positive mass is required."""


class DegenerateEmbeddingError(AttnAlignError):
    """Cosine similarity requested for a zero or non-finite vector."""


class BackendError(AttnAlignError):
    """An embedder backend failed; message carries the segment id."""


class GenerationError(AttnAlignError):
    """Synthetic dataset constraints cannot be satisfied."""


class ConfigurationError(AttnAlignError):
    """Mutually inconsistent configuration (e.g. R above the model's heads)."""


class DivergenceError(AttnAlignError):
    """Training loss became non-finite; message carries the step index."""


class MetricError(AttnAlignError):
    """A metric was called with an empty or invalid region."""


class CompatibilityError(AttnAlignError):
    """A checkpoint or dataset does not match what the code builds or reads."""


@contextlib.contextmanager
def named(where: str):
    """A package error raised in the block gets ``where`` in front of it."""
    try:
        yield
    except AttnAlignError as exc:
        raise type(exc)(f"{where}: {exc}") from None


_JSON_TYPES = {bool: "a bool", int: "an int", float: "a number", str: "a string",
               list: "a list", dict: "a JSON object"}


def require_type(value, hint, what: str) -> None:
    """``value``, which ``what`` names, must be of type ``hint`` when that is
    a JSON type, where a bool is not an int and an int counts as a float;
    the items of a ``list[X]`` are checked one by one."""
    if get_origin(hint) is list:
        require_type(value, list, what)
        for i, item in enumerate(value):
            require_type(item, get_args(hint)[0], f"item {i} of {what}")
        return
    kind = _JSON_TYPES.get(hint)
    if kind and (isinstance(value, bool) != (hint is bool)
                 or not isinstance(value, (int, float) if hint is float else hint)):
        raise CompatibilityError(f"{what} is {reprlib.repr(value)}, not {kind}")


def require_fields(doc, hints: dict, where: str, partial: bool = False,
                   kind: str = "key") -> None:
    """``doc``, which ``where`` names, must be a JSON object of exactly the
    keys of ``hints`` (with ``partial``, of some of them), each holding a
    value of its hinted type (see ``require_type``)."""
    require_type(doc, dict, where)
    odd = sorted(doc.keys() - hints.keys() if partial else doc.keys() ^ hints.keys())
    if odd:
        state = "unexpected in" if odd[0] in doc else "missing from"
        raise CompatibilityError(f"{kind} {odd[0]!r} {state} {where}")
    for name, value in doc.items():
        require_type(value, hints[name], f"{kind} {name!r} of {where}")


def stored_config(cls, stored, where: str, partial: bool = False):
    """The config dataclass ``cls`` from ``stored``, which ``where`` names: a
    JSON object of exactly its fields of JSON types (with ``partial``, some
    of them, the rest keeping their defaults), each of its type, that the
    dataclass takes."""
    # a field of another type, such as a nested config, is never stored
    hints = {name: hint for name, hint in get_type_hints(cls).items()
             if hint in _JSON_TYPES}
    require_fields(stored, hints, where, partial, f"{cls.__name__} field")
    with named(where):
        return cls(**stored)


def read_json(path: str | Path, where: str, raw: bytes | None = None):
    """The JSON value of ``raw``, by default the bytes of the file at ``path``;
    bytes that are not UTF-8 JSON are an error that names ``where``."""
    try:
        # decoded here, as json.loads would also take UTF-16, UTF-32 or a BOM
        text = (Path(path).read_bytes() if raw is None else raw).decode("utf-8")
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CompatibilityError(f"{where} is not valid JSON: {exc}") from None


def read_json_lines(path: str | Path):
    """Each line of a JSON-lines file, parsed by ``read_json``, and the words
    naming it."""
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            where = f"{path} line {n}"
            yield read_json(path, where, line), where


def require_header(doc, schema: str, kind: str, hints: dict,
                   at: str | Path) -> None:
    """``doc``, the ``kind`` at ``at``, must be a JSON object of schema
    ``schema`` and of exactly the other sections of ``hints``; the schema is
    checked first, so an old file reads as an old schema."""
    where = f"{kind} {at}"
    require_type(doc, dict, where)
    if doc.get("schema") != schema:
        raise CompatibilityError(
            f"unknown {kind} schema {reprlib.repr(doc.get('schema'))} in {at}")
    require_fields(doc, {"schema": str, **hints}, where, kind="section")


def encode_floats(a) -> str:
    """Base64 of the float64 bytes of ``a`` in C order."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return base64.b64encode(arr).decode("ascii")


def decode_floats(text, shape, where: str) -> np.ndarray:
    """The float64 array of ``shape`` that ``text`` encodes: strict base64 of
    exactly prod(shape) finite values, or a CompatibilityError naming
    ``where``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raise CompatibilityError(f"{where} has data that is not base64") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise CompatibilityError(
            f"{where} holds {len(raw)} bytes, its shape {tuple(shape)} needs {size}")
    a = np.frombuffer(raw, dtype=np.float64)
    if not np.isfinite(a).all():
        raise CompatibilityError(
            f"{where} holds {a[~np.isfinite(a)][0]}, not a finite number")
    return a.reshape(shape).copy()
