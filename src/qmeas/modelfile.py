"""JSON round-trip format for states, observables, channels, and schemes.

Complex entries are stored as [re, im] pairs so files are valid JSON and
round-trip exactly (Python's float repr is shortest-exact).  A matrix or a whole
operator family crosses the JSON boundary in one numpy step: encode lists the
float64 view of the stack, decode checks the leaf types, builds one float64 array
and reinterprets it as complex128, which keeps every bit, signed zeros included.
Files are compact one-line JSON.  Every document carries a schema_version and a
kind tag.
"""

from __future__ import annotations

import json
from itertools import chain
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
from .linalg import DEFAULT_TOL, Tolerances

SCHEMA_VERSION = "1"

_KINDS = ("state", "observable", "operation", "channel", "instrument", "scheme")
_NUMBERS = (int, float, np.integer, np.floating)


def _pairs(a: np.ndarray) -> list:
    """A stored complex128 matrix or stack as nested lists with one [re, im] pair per entry."""
    return a[..., None].view(np.float64).tolist()


def _array(nested: Any, ndim: int) -> np.ndarray:
    """ndim-deep nested lists of [re, im] pairs as one complex array of ndim - 1 axes.  The leaf
    types are checked first, since a float64 array would read "1.5", null and true as numbers."""
    try:
        leaves = nested
        for _ in range(ndim - 1):
            leaves = chain.from_iterable(leaves)
        types = set(map(type, leaves))
        if bool in types:
            raise ValidationError("malformed matrix entry: true and false are not numbers")
        for t in types:
            if not issubclass(t, _NUMBERS):
                raise ValidationError(f"malformed matrix entry: {t.__name__} is not a number")
        a = np.array(nested, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed matrix entry: {exc}") from exc
    if a.size == 0 and a.ndim < ndim:
        return a.astype(np.complex128)  # no entries at all: the constructors report the empty matrix
    if a.ndim != ndim or a.shape[-1] != 2:
        raise ValidationError(f"malformed matrix entry: expected [re, im] pairs {ndim} lists deep, "
                              f"got shape {a.shape}")
    a.setflags(write=False)
    return a.view(np.complex128)[..., 0]


def _is_int(value) -> bool:
    """A JSON integer; true and false are not integers although bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(doc: dict, key: str, kind: type = list):
    """doc[key]; a missing key or a value of another JSON type is a malformed document."""
    if key not in doc:
        raise ValidationError(f"{doc.get('kind')} document missing {key!r}")
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ValidationError(f"{doc.get('kind')} document field {key!r} must be a {kind.__name__}, "
                              f"got {type(value).__name__}")
    return value


def _labels(doc: dict) -> tuple:
    labels = tuple(_field(doc, "outcomes"))
    if not all(isinstance(x, (str, float)) or _is_int(x) for x in labels):
        raise ValidationError("outcome labels must be strings or numbers")
    return labels


def _from_choi_doc(doc: dict, cls: type, tol: Tolerances):
    """Alternative channel or operation payload: Choi matrix plus [dim_out, dim_in].

    kraus_from_choi reduces the matrix, rejecting one that is not Hermitian or not CP, and drops
    only round-off, so the constructor's trace check at atol_equality is the payload's own.
    """
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) == 2 and all(_is_int(n) and n > 0 for n in dims)):
        raise ValidationError("choi payload requires positive integer dims: [dim_out, dim_in]")
    dim_out, dim_in = dims
    choi = _array(doc["choi"], 3)
    if choi.shape != (dim_out * dim_in, dim_out * dim_in):
        raise ValidationError(f"choi shape {choi.shape} does not match dims {dims}")
    return cls(kraus_from_choi(choi, dim_out, dim_in, tol), tol)


def encode(obj) -> dict:
    """Document for one supported object; nested objects encode recursively."""
    if isinstance(obj, State):
        return {"schema_version": SCHEMA_VERSION, "kind": "state",
                "matrix": _pairs(obj.matrix)}
    if isinstance(obj, Observable):
        return {"schema_version": SCHEMA_VERSION, "kind": "observable",
                "outcomes": list(obj.outcomes),
                "effects": _pairs(obj.effects)}
    if isinstance(obj, Channel):
        return {"schema_version": SCHEMA_VERSION, "kind": "channel",
                "kraus": _pairs(obj.kraus)}
    if isinstance(obj, Operation):
        return {"schema_version": SCHEMA_VERSION, "kind": "operation",
                "kraus": _pairs(obj.kraus)}
    if isinstance(obj, Instrument):
        return {"schema_version": SCHEMA_VERSION, "kind": "instrument",
                "outcomes": list(obj.outcomes),
                "operations": [_pairs(op.kraus) for op in obj.operations]}
    if isinstance(obj, MeasurementScheme):
        return {"schema_version": SCHEMA_VERSION, "kind": "scheme",
                "system_dim": obj.system_dim,
                "ancilla": encode(obj.ancilla),
                "interaction": encode(obj.interaction),
                "pointer": encode(obj.pointer)}
    raise ValidationError(f"cannot encode object of type {type(obj).__name__}")


def decode(doc: dict, tol: Tolerances = DEFAULT_TOL):
    """Inverse of encode; validates through the type constructors at tol."""
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"unknown kind {kind!r}")
    if kind == "state":
        return State(_array(_field(doc, "matrix"), 3), tol)
    if kind == "observable":
        return Observable(_array(_field(doc, "effects"), 4), _labels(doc), tol)
    if kind in ("channel", "operation"):
        cls = Channel if kind == "channel" else Operation
        if "choi" in doc:
            return _from_choi_doc(doc, cls, tol)
        return cls(_array(_field(doc, "kraus"), 4), tol)
    if kind == "instrument":
        families = [_array(kraus, 4) for kraus in _field(doc, "operations")]
        return Instrument.from_kraus(families, _labels(doc), tol)
    return MeasurementScheme(
        system_dim=_field(doc, "system_dim", int),
        ancilla=_part(doc, "ancilla", State, tol),
        interaction=_part(doc, "interaction", Channel, tol),
        pointer=_part(doc, "pointer", Observable, tol),
    )


def _part(doc: dict, key: str, cls: type, tol: Tolerances):
    """A scheme's sub-document, which must decode to an object of type cls."""
    obj = decode(_field(doc, key, dict), tol)
    if not isinstance(obj, cls):
        raise ValidationError(f"scheme {key} must be a {cls.__name__.lower()}, got {type(obj).__name__}")
    return obj


def dumps(obj) -> str:
    return json.dumps(encode(obj))


def loads(text: str, tol: Tolerances = DEFAULT_TOL):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return decode(doc, tol)


def save(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path: str, tol: Tolerances = DEFAULT_TOL):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), tol)
