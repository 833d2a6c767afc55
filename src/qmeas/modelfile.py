"""JSON round-trip format for states, observables, channels, and schemes.

Complex entries are stored as [re, im] pairs so files are valid JSON and
round-trip exactly (Python's float repr is shortest-exact).  Every document
carries a schema_version and a kind tag.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .core import (
    Channel,
    Instrument,
    MeasurementScheme,
    Observable,
    Operation,
    State,
    kraus_from_choi,
)
from .errors import ValidationError

SCHEMA_VERSION = "1"

_KINDS = ("state", "observable", "operation", "channel", "instrument", "scheme")


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def _matrix_from_json(rows: Any) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entry: {exc}") from exc


def _field(doc: dict, key: str):
    """doc[key]; a missing key is a malformed document."""
    if key not in doc:
        raise ValidationError(f"{doc.get('kind')} document missing {key!r}")
    return doc[key]


def _kraus_from_choi_doc(doc: dict) -> tuple[np.ndarray, ...]:
    """Alternative channel payload: Choi matrix plus [dim_out, dim_in]."""
    dims = doc.get("dims")
    if (not isinstance(dims, (list, tuple))) or len(dims) != 2:
        raise ValidationError("choi payload requires dims: [dim_out, dim_in]")
    dim_out, dim_in = int(dims[0]), int(dims[1])
    choi = _matrix_from_json(doc["choi"])
    if choi.shape != (dim_out * dim_in, dim_out * dim_in):
        raise ValidationError(f"choi shape {choi.shape} does not match dims {dims}")
    return kraus_from_choi(choi, dim_out, dim_in)


def encode(obj) -> dict:
    """Document for one supported object; nested objects encode recursively."""
    if isinstance(obj, State):
        return {"schema_version": SCHEMA_VERSION, "kind": "state",
                "matrix": _matrix_to_json(obj.matrix)}
    if isinstance(obj, Observable):
        return {"schema_version": SCHEMA_VERSION, "kind": "observable",
                "outcomes": list(obj.outcomes),
                "effects": [_matrix_to_json(e) for e in obj.effects]}
    if isinstance(obj, Channel):
        return {"schema_version": SCHEMA_VERSION, "kind": "channel",
                "kraus": [_matrix_to_json(k) for k in obj.kraus]}
    if isinstance(obj, Operation):
        return {"schema_version": SCHEMA_VERSION, "kind": "operation",
                "kraus": [_matrix_to_json(k) for k in obj.kraus]}
    if isinstance(obj, Instrument):
        return {"schema_version": SCHEMA_VERSION, "kind": "instrument",
                "outcomes": list(obj.outcomes),
                "operations": [[_matrix_to_json(k) for k in op.kraus] for op in obj.operations]}
    if isinstance(obj, MeasurementScheme):
        return {"schema_version": SCHEMA_VERSION, "kind": "scheme",
                "system_dim": obj.system_dim,
                "ancilla": encode(obj.ancilla),
                "interaction": encode(obj.interaction),
                "pointer": encode(obj.pointer)}
    raise ValidationError(f"cannot encode object of type {type(obj).__name__}")


def decode(doc: dict):
    """Inverse of encode; validates through the type constructors."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"unknown kind {kind!r}")
    if kind == "state":
        return State(_matrix_from_json(_field(doc, "matrix")))
    if kind == "observable":
        effects = tuple(_matrix_from_json(e) for e in _field(doc, "effects"))
        return Observable(effects, tuple(_field(doc, "outcomes")))
    if kind == "channel":
        if "choi" in doc:
            return Channel(_kraus_from_choi_doc(doc))
        return Channel(tuple(_matrix_from_json(k) for k in _field(doc, "kraus")))
    if kind == "operation":
        if "choi" in doc:
            return Operation(_kraus_from_choi_doc(doc))
        return Operation(tuple(_matrix_from_json(k) for k in _field(doc, "kraus")))
    if kind == "instrument":
        ops = tuple(Operation(tuple(_matrix_from_json(k) for k in kraus))
                    for kraus in _field(doc, "operations"))
        return Instrument(ops, tuple(_field(doc, "outcomes")))
    return MeasurementScheme(
        system_dim=int(_field(doc, "system_dim")),
        ancilla=decode(_field(doc, "ancilla")),
        interaction=decode(_field(doc, "interaction")),
        pointer=decode(_field(doc, "pointer")),
    )


def dumps(obj, indent: int | None = None) -> str:
    return json.dumps(encode(obj), indent=indent)


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return decode(doc)


def save(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=2))
        fh.write("\n")


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
