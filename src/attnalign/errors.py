"""Exception types shared across the package.

Every failure mode named in a module contract maps to one of these, so
callers can catch precisely and tests can assert on type. The rules for
a file read back (checkpoint, dataset meta, samples, config) live here too,
among them the one base64 codec of the float64 arrays those files hold.
"""

import base64
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np


class AttnAlignError(Exception):
    """Base class for all package errors."""


class ShapeError(AttnAlignError):
    """Operand dimensions disagree; message names both shapes."""


class DegenerateRowError(AttnAlignError):
    """A softmax row has no unmasked entries."""


class NumericError(AttnAlignError):
    """A computation produced a non-finite value where finiteness is required."""


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
    """Cosine similarity requested for a zero vector."""


class BackendError(AttnAlignError):
    """An embedder backend failed; message carries the segment id."""


class GenerationError(AttnAlignError):
    """Synthetic dataset constraints cannot be satisfied."""


class ConfigurationError(AttnAlignError):
    """Mutually inconsistent configuration (e.g. alignment on with R=0)."""


class DivergenceError(AttnAlignError):
    """Training loss became non-finite; message carries the step index."""


class MetricError(AttnAlignError):
    """A metric was called with an empty or invalid region."""


class CompatibilityError(AttnAlignError):
    """A checkpoint or dataset does not match what the code builds or reads."""


def require_names(expected, stored, kind: str, source: str) -> None:
    """The stored names must be exactly the expected ones."""
    odd = sorted(set(expected) ^ set(stored))
    if odd:
        state = "missing from" if odd[0] in expected else "unexpected in"
        raise CompatibilityError(f"{kind} {odd[0]!r} {state} {source}")


_JSON_TYPES = {bool: "a bool", int: "an int", float: "a number", str: "a string",
               list: "a list"}


def require_type(value, hint, what: str) -> None:
    """``value``, which ``what`` names, must be of type ``hint`` when that is
    a JSON type, where a bool is not an int and an int counts as a float."""
    kind = _JSON_TYPES.get(hint)
    if kind is None:
        return
    if isinstance(value, bool) != (hint is bool) or \
            not isinstance(value, (int, float) if hint is float else hint):
        raise CompatibilityError(f"{what} is {value!r}, not {kind}")


def require_fields(doc, hints: dict, where: str) -> None:
    """``doc`` must be a JSON object of exactly ``hints``' keys and types."""
    if not isinstance(doc, dict):
        raise CompatibilityError(f"{where} is not a JSON object")
    require_names(hints, doc, "key", where)
    for name, hint in hints.items():
        require_type(doc[name], hint, f"field {name!r} of {where}")


def stored_config(cls, stored: dict, source: str, partial: bool = False):
    """A config dataclass from its stored fields.

    Their names must match the fields exactly, or with ``partial`` be
    among them (a missing field keeps its default). A field typed int,
    float or bool must hold one (see ``require_type``).
    """
    names = {f.name for f in fields(cls)}
    require_names(names & stored.keys() if partial else names, stored,
                  f"{cls.__name__} field", source)
    hints = get_type_hints(cls)
    for name, value in stored.items():
        require_type(value, hints[name],
                     f"{cls.__name__} field {name!r} of {source}")
    return cls(**stored)


def read_json_lines(path: str | Path):
    """Each line of a JSON-lines file, parsed, and the words naming it."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            where = f"{path} line {n}"
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CompatibilityError(f"{where} is not valid JSON: {exc.msg}") \
                    from None
            yield doc, where


def read_document(path: str | Path, schema: str, kind: str, source: str,
                  objects=(), nullable=()) -> dict:
    """The JSON object at ``path``, of schema ``schema``, in which each section
    named in ``objects`` or ``nullable`` (which may be null) is an object."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise CompatibilityError(f"{source} is not a JSON object")
    if doc.get("schema") != schema:
        raise CompatibilityError(f"unknown {kind} schema {doc.get('schema')!r}")
    for name in (*objects, *nullable):
        value = doc.get(name, {})
        if not isinstance(value, dict) and not (value is None and name in nullable):
            raise CompatibilityError(f"section {name!r} of {source} is not a JSON object")
    return doc


def encode_floats(a) -> str:
    """Base64 of the float64 bytes of ``a`` in C order."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_floats(text, shape, where: str) -> np.ndarray:
    """The float64 array of ``shape`` that ``text`` encodes: strict base64 of
    exactly prod(shape) values, or a CompatibilityError naming ``where``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):
        raise CompatibilityError(f"{where} has data that is not base64") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise CompatibilityError(
            f"{where} holds {len(raw)} bytes, its shape {tuple(shape)} needs {size}")
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
