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
from .linalg import DEFAULT_TOL, Tolerances, hermitian_eig

SCHEMA_VERSION = "1"

_KINDS = ("state", "observable", "operation", "channel", "instrument", "scheme")


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=np.complex128)]


def _entry(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):
        raise ValidationError("malformed matrix entry: true and false are not numbers")
    return complex(re, im)


def _matrix_from_json(rows: Any) -> np.ndarray:
    try:
        return np.array([[_entry(re, im) for re, im in row] for row in rows], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix entry: {exc}") from exc


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


def _matrices(items: Any) -> tuple[np.ndarray, ...]:
    if not isinstance(items, list):
        raise ValidationError(f"expected a list of matrices, got {type(items).__name__}")
    return tuple(_matrix_from_json(m) for m in items)


def _from_choi_doc(doc: dict, cls: type, tol: Tolerances):
    """Alternative channel or operation payload: Choi matrix plus [dim_out, dim_in].

    kraus_from_choi reduces the matrix (and rejects one that is not Hermitian or not CP).
    The matrix's own partial trace over the output, (sum K^dag K)^T, must meet the trace
    condition at atol_equality; the reduced family is validated at that tolerance plus
    the weight the reduction dropped.
    """
    dims = doc.get("dims")
    if not (isinstance(dims, list) and len(dims) == 2 and all(_is_int(n) and n > 0 for n in dims)):
        raise ValidationError("choi payload requires positive integer dims: [dim_out, dim_in]")
    dim_out, dim_in = dims
    choi = _matrix_from_json(doc["choi"])
    if choi.shape != (dim_out * dim_in, dim_out * dim_in):
        raise ValidationError(f"choi shape {choi.shape} does not match dims {dims}")
    kraus, dropped = kraus_from_choi(choi, dim_out, dim_in, tol)
    kraus_sum = np.trace(choi.reshape(dim_out, dim_in, dim_out, dim_in), axis1=0, axis2=2).T
    if cls is Channel:
        dev = np.abs(kraus_sum - np.eye(dim_in)).max()
        if not dev <= tol.atol_equality:
            raise ValidationError(f"choi partial trace deviates from identity by {dev:.3e}")
    else:
        top = hermitian_eig(kraus_sum, tol)[0][0]
        if not top <= 1.0 + tol.atol_equality:
            raise ValidationError(f"choi partial trace has eigenvalue {top:.12f} > 1")
    return cls(kraus, tol, dropped)


def encode(obj) -> dict:
    """Document for one supported object; nested objects encode recursively.  A family saved
    without the weight its reduction dropped must still decode at its own tol."""
    doc = _document(obj)
    dropped = obj.induced_observable().dropped if isinstance(obj, Instrument) else getattr(obj, "dropped", 0)
    if dropped > 0:
        try:
            decode(doc, obj.tol)
        except ValidationError as exc:
            raise ValidationError(f"{doc['kind']} would not load back without the weight {dropped:.3e} "
                                  f"its reduction dropped: {exc}") from exc
    return doc


def _document(obj) -> dict:
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
        return State(_matrix_from_json(_field(doc, "matrix")), tol)
    if kind == "observable":
        return Observable(_matrices(_field(doc, "effects")), _labels(doc), tol)
    if kind in ("channel", "operation"):
        cls = Channel if kind == "channel" else Operation
        if "choi" in doc:
            return _from_choi_doc(doc, cls, tol)
        return cls(_matrices(_field(doc, "kraus")), tol)
    if kind == "instrument":
        ops = tuple(Operation(_matrices(kraus), tol) for kraus in _field(doc, "operations"))
        return Instrument(ops, _labels(doc), tol)
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


def dumps(obj, indent: int | None = None) -> str:
    return json.dumps(encode(obj), indent=indent)


def loads(text: str, tol: Tolerances = DEFAULT_TOL):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return decode(doc, tol)


def save(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=2))
        fh.write("\n")


def load(path: str, tol: Tolerances = DEFAULT_TOL):
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read(), tol)
